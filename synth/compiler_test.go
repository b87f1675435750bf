package synth

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/circuit"
	"repro/internal/gates"
	"repro/internal/qmat"
	"repro/internal/sim"
)

// stubBackend counts synthesis calls and returns a fixed sequence.
type stubBackend struct {
	calls atomic.Int64
	delay time.Duration
	fail  bool
}

func (s *stubBackend) Name() string { return "stub" }

func (s *stubBackend) Synthesize(ctx context.Context, u qmat.M2, req Request) (Result, error) {
	if s.delay > 0 {
		select {
		case <-ctx.Done():
			return Result{}, ctx.Err()
		case <-time.After(s.delay):
		}
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	s.calls.Add(1)
	if s.fail {
		return Result{}, fmt.Errorf("stub: synthetic failure")
	}
	seq := gates.Sequence{gates.T, gates.H}
	return finish("stub", time.Now(), seq, 0.001, 1), nil
}

// TestCompileBatchCancellation: a mid-flight cancel drains the pool and
// surfaces the context error; a pre-canceled context never synthesizes.
func TestCompileBatchCancellation(t *testing.T) {
	stub := &stubBackend{delay: 50 * time.Millisecond}
	comp := NewCompiler(stub, Request{})
	comp.Workers = 2
	targets := make([]qmat.M2, 64)
	for i := range targets {
		targets[i] = qmat.Rz(float64(i) * 0.01)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := comp.CompileBatch(ctx, targets)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %s — pool did not drain", elapsed)
	}
	if got := stub.calls.Load(); got > 4 {
		t.Fatalf("pool kept synthesizing after cancel: %d calls", got)
	}

	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	stub2 := &stubBackend{}
	comp2 := NewCompiler(stub2, Request{})
	if _, err := comp2.CompileBatch(pre, targets); !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if got := stub2.calls.Load(); got != 0 {
		t.Fatalf("pre-canceled batch synthesized %d times", got)
	}
}

// TestCompileBatchError: a failing backend aborts the batch with its
// error, and the failure is not cached: a second batch calls the backend
// again.
func TestCompileBatchError(t *testing.T) {
	stub := &stubBackend{fail: true}
	comp := NewCompiler(stub, Request{})
	targets := []qmat.M2{qmat.Rz(0.3), qmat.Rz(0.4)}
	if _, err := comp.CompileBatch(context.Background(), targets); err == nil {
		t.Fatal("batch with failing backend returned nil error")
	}
	if n := comp.Cache.Len(); n != 0 {
		t.Fatalf("failed synthesis cached %d entries", n)
	}
	before := stub.calls.Load()
	if _, err := comp.CompileBatch(context.Background(), targets); err == nil {
		t.Fatal("second batch with failing backend returned nil error")
	}
	if stub.calls.Load() == before {
		t.Fatal("second batch did not call the backend: the failure was cached")
	}
}

// TestCompileBatchCacheAccounting: repeated targets synthesize once and
// count as hits; the cache is shared across batches.
func TestCompileBatchCacheAccounting(t *testing.T) {
	stub := &stubBackend{}
	comp := NewCompiler(stub, Request{})
	targets := []qmat.M2{qmat.Rz(0.3), qmat.Rz(0.3), qmat.Rz(0.3), qmat.Rz(0.9)}
	// Sequential workers make the duplicate ordering deterministic.
	comp.Workers = 1
	if _, err := comp.CompileBatch(context.Background(), targets); err != nil {
		t.Fatal(err)
	}
	if got := stub.calls.Load(); got != 2 {
		t.Fatalf("want 2 syntheses for 2 distinct targets, got %d", got)
	}
	st := comp.Cache.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("want 2 hits / 2 misses, got %+v", st)
	}
	// Second batch over the same targets: all hits, zero new syntheses.
	if _, err := comp.CompileBatch(context.Background(), targets); err != nil {
		t.Fatal(err)
	}
	if got := stub.calls.Load(); got != 2 {
		t.Fatalf("warm batch re-synthesized: %d calls", got)
	}
	if st := comp.Cache.Stats(); st.Hits != 6 {
		t.Fatalf("warm batch want 6 cumulative hits, got %+v", st)
	}
}

// TestCompileCircuitAccounting: within one circuit, repeated angles cost
// one synthesis; trivial rotations cost none.
func TestCompileCircuitAccounting(t *testing.T) {
	stub := &stubBackend{}
	c := circuit.New(4)
	for q := 0; q < 4; q++ {
		c.RZ(q, 0.7)
	}
	res, err := NewPipeline(stub, WithPasses(Transpile(), Lower())).Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rotations != 4 {
		t.Fatalf("want 4 lowered rotations, got %d", res.Stats.Rotations)
	}
	if res.Stats.Unique != 1 {
		t.Fatalf("want 1 unique synthesis, got %d", res.Stats.Unique)
	}
	if res.Stats.Hits != 3 || res.Stats.Misses != 1 {
		t.Fatalf("want 3 hits / 1 miss, got %d / %d", res.Stats.Hits, res.Stats.Misses)
	}
	if got := stub.calls.Load(); got != 1 {
		t.Fatalf("backend called %d times for 1 unique rotation", got)
	}
}

// TestCompileCircuitSemantics: end-to-end with the real trasyn backend — the
// lowered circuit must approximate the original within the error bound.
func TestCompileCircuitSemantics(t *testing.T) {
	be, _ := Lookup("trasyn")
	pl := NewPipeline(be, WithRequest(Request{
		Epsilon: 0.02, TBudget: 6, Tensors: 2, Samples: 1500, Seed: Seed(99),
	}), WithPasses(Transpile(), Lower()))
	c := circuit.New(2)
	c.H(0).RZ(0, 0.8).CX(0, 1).RX(1, 1.1).U3Gate(0, 0.5, 0.3, -0.7).CX(0, 1)
	res, err := pl.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Circuit.CountRotations() != 0 {
		t.Fatal("rotations left after lowering")
	}
	d := sim.UnitaryDistance(sim.Unitary(c), sim.Unitary(res.Circuit))
	if d > res.Stats.ErrorBound*1.5+1e-6 {
		t.Fatalf("lowered circuit distance %v exceeds bound %v", d, res.Stats.ErrorBound)
	}
}

// TestCompileBatchDeterministicSeeding: per-op seeds derive from the op
// key, so results are identical across batch orderings and fresh caches.
func TestCompileBatchDeterministicSeeding(t *testing.T) {
	be, _ := Lookup("trasyn")
	req := Request{TBudget: 5, Tensors: 2, Samples: 400, Seed: Seed(7)}
	fwd := []qmat.M2{qmat.Rz(0.9), qmat.Rz(0.4), qmat.Rz(1.7)}
	rev := []qmat.M2{qmat.Rz(1.7), qmat.Rz(0.4), qmat.Rz(0.9)}
	a, err := NewCompiler(be, req).CompileBatch(context.Background(), fwd)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCompiler(be, req).CompileBatch(context.Background(), rev)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fwd {
		if a[i].Seq.String() != b[len(rev)-1-i].Seq.String() {
			t.Fatalf("target %d: order-dependent result:\n%v\n%v", i, a[i].Seq, b[len(rev)-1-i].Seq)
		}
	}
}

// qaoaRotationTargets extracts the nontrivial rotation matrices of the
// QAOA example circuit — the workload of the acceptance benchmark.
func qaoaRotationTargets() []qmat.M2 {
	qaoa := qaoa8()
	var targets []qmat.M2
	for _, op := range qaoa.Ops {
		if op.G.IsRotation() {
			targets = append(targets, op.Matrix1Q())
		}
	}
	return targets
}

// repeatedAngles counts the distinct rotations that occur more than once
// in a target list — the denominators of the hits-per-repeated-rotation
// acceptance metric.
func repeatedAngles(c *Compiler, targets []qmat.M2) int {
	counts := map[Key]int{}
	for _, u := range targets {
		counts[KeyOfTarget(u, c.Backend.Name(), c.Req.Epsilon, c.Req.cacheCfg())]++
	}
	n := 0
	for _, v := range counts {
		if v > 1 {
			n++
		}
	}
	return n
}

// TestCompileBatchQAOAHits: on the QAOA example circuit the shared cache
// must give more than one hit per repeated rotation (the angles repeat
// heavily across edges and qubits).
func TestCompileBatchQAOAHits(t *testing.T) {
	targets := qaoaRotationTargets()
	be, _ := Lookup("gridsynth")
	comp := NewCompiler(be, Request{Epsilon: 1e-2})
	if _, err := comp.CompileBatch(context.Background(), targets); err != nil {
		t.Fatal(err)
	}
	repeats := repeatedAngles(comp, targets)
	if repeats == 0 {
		t.Fatal("QAOA workload has no repeated rotations")
	}
	st := comp.Cache.Stats()
	if st.Hits <= int64(repeats) {
		t.Fatalf("cache gave %d hits for %d repeated rotations — want > 1 hit each", st.Hits, repeats)
	}
	// Every duplicate occurrence must be a hit, never a re-synthesis.
	if want := int64(len(targets)) - st.Misses; st.Hits != want {
		t.Fatalf("hits %d != repeated occurrences %d", st.Hits, want)
	}
}

// BenchmarkCompileBatch: the acceptance benchmark — batch-compile the QAOA
// example circuit's rotations through the shared cache and report hits per
// repeated rotation per batch (must exceed 1: the cache amortizes every
// duplicate occurrence onto one synthesis).
func BenchmarkCompileBatch(b *testing.B) {
	targets := qaoaRotationTargets()
	be, _ := Lookup("gridsynth")
	comp := NewCompiler(be, Request{Epsilon: 1e-2})
	repeats := repeatedAngles(comp, targets)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comp.CompileBatch(ctx, targets); err != nil {
			b.Fatal(err)
		}
	}
	st := comp.Cache.Stats()
	if repeats > 0 {
		b.ReportMetric(float64(st.Hits)/float64(int64(repeats)*int64(b.N)), "hits/repeated-rot")
	}
	b.ReportMetric(float64(st.Hits)/float64(b.N), "hits/batch")
	b.ReportMetric(st.HitRate(), "hit-rate")
}
