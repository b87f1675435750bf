package synth

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/circuit"
	"repro/internal/qmat"
	"repro/internal/sim"
)

// TestAllocateBudget: allocations must sum to ε for every strategy, and
// the weighted strategy must hand every distinct angle class an equal
// share.
func TestAllocateBudget(t *testing.T) {
	c := circuit.New(2)
	c.RZ(0, 0.3).RZ(1, 0.3).RZ(0, 0.9).RX(1, 0.3) // classes: rz(0.3)x2, rz(0.9), rx(0.3)
	c.RZ(0, math.Pi)                              // trivial: no budget
	c.H(1)
	const eps = 0.12
	for _, s := range []BudgetStrategy{BudgetUniform, BudgetWeighted} {
		got := AllocateBudget(c, eps, s)
		if len(got) != len(c.Ops) {
			t.Fatalf("%v: allocation length %d != ops %d", s, len(got), len(c.Ops))
		}
		sum := 0.0
		for i, e := range got {
			if e < 0 {
				t.Fatalf("%v: negative allocation at op %d", s, i)
			}
			if e > 0 && !synthesizable(c.Ops[i]) {
				t.Fatalf("%v: op %d (%v) got budget but needs no synthesis", s, i, c.Ops[i].G)
			}
			sum += e
		}
		if math.Abs(sum-eps) > 1e-12 {
			t.Fatalf("%v: allocations sum to %v, want %v", s, sum, eps)
		}
	}
	uni := AllocateBudget(c, eps, BudgetUniform)
	if math.Abs(uni[0]-eps/4) > 1e-12 {
		t.Fatalf("uniform: op 0 got %v, want ε/4 = %v", uni[0], eps/4)
	}
	// Weighted: 3 classes, rz(0.3) has multiplicity 2 → each occurrence
	// gets ε/(3·2); the singleton classes get ε/3.
	w := AllocateBudget(c, eps, BudgetWeighted)
	if math.Abs(w[0]-eps/6) > 1e-12 || math.Abs(w[1]-eps/6) > 1e-12 {
		t.Fatalf("weighted: repeated class got %v/%v, want ε/6 = %v", w[0], w[1], eps/6)
	}
	if math.Abs(w[2]-eps/3) > 1e-12 || math.Abs(w[3]-eps/3) > 1e-12 {
		t.Fatalf("weighted: singleton classes got %v/%v, want ε/3 = %v", w[2], w[3], eps/3)
	}
	if got := AllocateBudget(circuit.New(1).H(0), eps, BudgetUniform); got[0] != 0 {
		t.Fatalf("rotation-free circuit got allocation %v", got)
	}
}

// randomCircuit builds a random 2–3 qubit circuit mixing discrete gates,
// two-qubit gates and continuous rotations (with one deliberate repeat
// class and one trivial angle).
func randomCircuit(rng *rand.Rand) *circuit.Circuit {
	n := 2 + rng.Intn(2)
	c := circuit.New(n)
	repeat := rng.Float64()*2 - 1
	for i := 0; i < 10; i++ {
		q := rng.Intn(n)
		switch rng.Intn(7) {
		case 0:
			c.H(q)
		case 1:
			c.S(q)
		case 2:
			c.CX(q, (q+1)%n)
		case 3:
			c.RZ(q, repeat)
		case 4:
			c.RZ(q, rng.Float64()*2-1)
		case 5:
			c.RX(q, rng.Float64()*2-1)
		case 6:
			c.RZ(q, math.Pi/2) // trivial: snaps exactly
		}
	}
	return c
}

// TestPipelinePreservesUnitary is the property test: a pipeline of all
// built-in passes preserves the circuit unitary on random 2–3 qubit
// circuits, and the realized error respects the WithCircuitEpsilon budget
// under both splitting strategies (gridsynth guarantees its per-rotation
// thresholds, so the additive bound must hold end to end).
func TestPipelinePreservesUnitary(t *testing.T) {
	const eps = 0.05
	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	for trial := 0; trial < 3; trial++ {
		c := randomCircuit(rng)
		for _, strat := range []BudgetStrategy{BudgetUniform, BudgetWeighted} {
			pl, err := NewPipelineFor("gridsynth",
				WithCircuitEpsilon(eps),
				WithBudgetStrategy(strat),
				WithPasses(DefaultPasses()...),
			)
			if err != nil {
				t.Fatal(err)
			}
			res, err := pl.Run(ctx, c)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, strat, err)
			}
			if res.Circuit.CountRotations() != 0 {
				t.Fatalf("trial %d %v: rotations left after lowering", trial, strat)
			}
			if res.Stats.ErrorBound > eps+1e-12 {
				t.Fatalf("trial %d %v: realized bound %v exceeds circuit budget %v",
					trial, strat, res.Stats.ErrorBound, eps)
			}
			d := sim.UnitaryDistance(sim.Unitary(c), sim.Unitary(res.Circuit))
			if d > eps+1e-6 {
				t.Fatalf("trial %d %v: unitary distance %v exceeds budget %v", trial, strat, d, eps)
			}
			if res.Stats.Resources == nil {
				t.Fatalf("trial %d %v: EstimateResources pass left Stats.Resources nil", trial, strat)
			}
		}
	}
}

// TestPipelinePassesAndProgress: custom pass sequences run in order, emit
// pass-start and synthesis progress events, and NewPass hooks user stages
// into the shared context.
func TestPipelinePassesAndProgress(t *testing.T) {
	stub := &stubBackend{}
	var events []ProgressEvent
	sawRotations := -1
	audit := NewPass("audit", func(pc *PassContext, c *circuit.Circuit) (*circuit.Circuit, error) {
		sawRotations = c.CountRotations()
		return c, nil
	})
	// Default worker count on purpose: delivery is serialized by the
	// pipeline, so this plain append must be race-free.
	pl := NewPipeline(stub,
		WithPasses(SnapTrivial(), audit, Lower()),
		WithProgress(func(ev ProgressEvent) { events = append(events, ev) }),
	)
	if got := pl.Passes(); len(got) != 3 || got[0] != "snap" || got[1] != "audit" || got[2] != "lower" {
		t.Fatalf("Passes() = %v", got)
	}
	c := circuit.New(1)
	c.RZ(0, math.Pi/2).RZ(0, 0.7).RZ(0, 1.3)
	res, err := pl.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if sawRotations != 2 {
		t.Fatalf("audit pass saw %d rotations after snap, want 2", sawRotations)
	}
	if res.Stats.Unique != 2 || res.Stats.Rotations != 2 {
		t.Fatalf("stats: %+v", res.Stats)
	}
	if len(res.Stats.Passes) != 3 {
		t.Fatalf("want 3 pass timings, got %v", res.Stats.Passes)
	}
	var starts []string
	maxDone := 0
	for _, ev := range events {
		if ev.Total == 0 {
			starts = append(starts, ev.Pass)
		} else if ev.Pass == "lower" && ev.Done > maxDone {
			maxDone = ev.Done
		}
	}
	if len(starts) != 3 || starts[0] != "snap" || starts[1] != "audit" || starts[2] != "lower" {
		t.Fatalf("pass-start events: %v", starts)
	}
	if maxDone != 2 {
		t.Fatalf("lower progress reached %d, want 2", maxDone)
	}
}

// TestLookupPass: every published pass name resolves, and the canned
// sequences match PassNames (the full optimized list) and DefaultPasses
// (the no-optimizer subset).
func TestLookupPass(t *testing.T) {
	names := PassNames()
	full := append([]Pass{FuseBlocks()}, OptimizedPasses(2)...)
	if len(names) != len(full) {
		t.Fatalf("PassNames %d entries, fuse2q+OptimizedPasses(2) %d", len(names), len(full))
	}
	for i, n := range names {
		p, ok := LookupPass(n)
		if !ok {
			t.Fatalf("LookupPass(%q) failed", n)
		}
		if p.Name() != n || full[i].Name() != n {
			t.Fatalf("pass name mismatch at %d: %q / %q / %q", i, n, p.Name(), full[i].Name())
		}
	}
	defs := DefaultPasses()
	want := []string{"transpile", "fuse", "snap", "lower", "estimate"}
	if len(defs) != len(want) {
		t.Fatalf("DefaultPasses %d entries, want %d", len(defs), len(want))
	}
	for i, n := range want {
		if defs[i].Name() != n {
			t.Fatalf("DefaultPasses[%d] = %q, want %q", i, defs[i].Name(), n)
		}
	}
	if _, ok := LookupPass("nope"); ok {
		t.Fatal("LookupPass accepted an unknown name")
	}
}

// TestLowerEvictionAccounting: when the cache is smaller than the distinct
// rotation set, assembly still serves every op from what the scan and the
// pool returned — no entry is read back from the cache, so an eviction
// between the phases costs nothing — and Hits+Misses stays equal to the
// lookups actually performed.
func TestLowerEvictionAccounting(t *testing.T) {
	stub := &stubBackend{}
	cache := NewCache(1) // capacity 1 < 2 distinct rotations
	pl := NewPipeline(stub, WithCache(cache), WithWorkers(1), WithPasses(Lower()))
	c := circuit.New(1)
	c.RZ(0, 0.3).H(0).RZ(0, 0.9).H(0).RZ(0, 0.3)
	res, err := pl.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	// Scan: miss(0.3), miss(0.9), pending-hit(0.3). The pool synthesizes
	// both; the repeat of rz(0.3) reuses the pool's result even though its
	// entry was evicted (the single slot holds rz(0.9)): 3 lookups total.
	if res.Stats.Hits != 1 || res.Stats.Misses != 2 {
		t.Fatalf("want 1 hit / 2 misses, got %d / %d", res.Stats.Hits, res.Stats.Misses)
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("cache counters want 1/2, got %+v", st)
	}
	if got, want := st.Hits+st.Misses, int64(3); got != want {
		t.Fatalf("Hits+Misses = %d, want %d lookups", got, want)
	}
	if got := stub.calls.Load(); got != 2 {
		t.Fatalf("backend calls = %d, want 2 (pool only)", got)
	}
}

// TestCompileBatchEvictionAccounting: CompileBatch likewise serves the
// repeat of an evicted key from the pool's result, with no second lookup.
func TestCompileBatchEvictionAccounting(t *testing.T) {
	stub := &stubBackend{}
	comp := NewCompiler(stub, Request{})
	comp.Cache = NewCache(1)
	comp.Workers = 1
	targets := []qmat.M2{qmat.Rz(0.3), qmat.Rz(0.9), qmat.Rz(0.3)}
	if _, err := comp.CompileBatch(context.Background(), targets); err != nil {
		t.Fatal(err)
	}
	// Scan: miss, miss, pending-hit. The repeat of rz(0.3) reuses the
	// pool's result although the slot now holds rz(0.9).
	st := comp.Cache.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("want 1 hit / 2 misses, got %+v", st)
	}
	if got, want := st.Hits+st.Misses, int64(3); got != want {
		t.Fatalf("Hits+Misses = %d, want %d lookups", got, want)
	}
	if got := stub.calls.Load(); got != 2 {
		t.Fatalf("backend calls = %d, want 2 (pool only)", got)
	}
}

// TestPipelineCachePersistsAcrossRuns: like NewCompiler, NewPipeline owns
// one cache across Run calls — a second compile of the same circuit must
// be all hits, zero new syntheses.
func TestPipelineCachePersistsAcrossRuns(t *testing.T) {
	stub := &stubBackend{}
	pl := NewPipeline(stub, WithPasses(Lower()))
	c := circuit.New(1)
	c.RZ(0, 0.7).H(0).RZ(0, 1.3)
	first, err := pl.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Misses != 2 || first.Stats.Hits != 0 {
		t.Fatalf("cold run: %d hits / %d misses", first.Stats.Hits, first.Stats.Misses)
	}
	second, err := pl.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Hits != 2 || second.Stats.Misses != 0 {
		t.Fatalf("warm run: %d hits / %d misses", second.Stats.Hits, second.Stats.Misses)
	}
	if got := stub.calls.Load(); got != 2 {
		t.Fatalf("warm run re-synthesized: %d backend calls", got)
	}
}

// TestPipelineCancellation: a canceled context aborts between passes.
func TestPipelineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pl := NewPipeline(&stubBackend{})
	if _, err := pl.Run(ctx, circuit.New(1).RZ(0, 0.4)); err == nil {
		t.Fatal("pre-canceled pipeline ran")
	}
}
