// Package pipeline holds no code of its own. Circuit lowering is the
// synth package's Lower pass, and the two workflows of Figure 3(a) are a
// synth.Pipeline forced to the CX+U3 or the CX+H+RZ IR; these are the
// package's original checks, run against that implementation.
package pipeline

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"repro/circuit"
	"repro/circuit/gen"
	"repro/internal/gates"
	"repro/internal/qmat"
	"repro/internal/sim"
	"repro/synth"
)

// trasynReq is trasyn at T budget 6 per tensor, 2 tensors, 1500 samples,
// stopping at ε 0.02, with base seed 99.
var trasynReq = synth.Request{Epsilon: 0.02, TBudget: 6, Tensors: 2, Samples: 1500, Seed: synth.Seed(99)}

// countingBackend counts synthesis calls and answers every target with T.
type countingBackend struct{ calls atomic.Int64 }

func (b *countingBackend) Name() string { return "count" }

func (b *countingBackend) Synthesize(ctx context.Context, u qmat.M2, req synth.Request) (synth.Result, error) {
	b.calls.Add(1)
	return synth.Result{Seq: gates.Sequence{gates.T}, TCount: 1, Backend: "count"}, nil
}

// lower runs the Lower pass alone over c.
func lower(t *testing.T, be synth.Backend, req synth.Request, c *circuit.Circuit) *synth.PipelineResult {
	t.Helper()
	res, err := synth.NewPipeline(be, synth.WithRequest(req), synth.WithPasses(synth.Lower())).
		Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func lookup(t *testing.T, name string) synth.Backend {
	t.Helper()
	be, ok := synth.Lookup(name)
	if !ok {
		t.Fatalf("backend %s not registered", name)
	}
	return be
}

// TestLowerPreservesSemantics: the lowered circuit must approximate the
// original within the accumulated error bound.
func TestLowerPreservesSemantics(t *testing.T) {
	c := circuit.New(2)
	c.H(0).RZ(0, 0.8).CX(0, 1).RX(1, 1.1).U3Gate(0, 0.5, 0.3, -0.7).CX(0, 1)
	res := lower(t, lookup(t, "trasyn"), trasynReq, c)
	if res.Stats.Rotations != 3 {
		t.Fatalf("expected 3 synthesized rotations, got %d", res.Stats.Rotations)
	}
	d := sim.UnitaryDistance(sim.Unitary(c), sim.Unitary(res.Circuit))
	if d > res.Stats.ErrorBound*1.5+1e-6 {
		t.Fatalf("lowered circuit distance %v exceeds bound %v", d, res.Stats.ErrorBound)
	}
	if res.Circuit.CountRotations() != 0 {
		t.Fatal("rotations left after lowering")
	}
}

// TestLowerSnapsTrivial: π/4-multiples must not consume synthesis.
func TestLowerSnapsTrivial(t *testing.T) {
	c := circuit.New(1)
	c.RZ(0, math.Pi/2).RZ(0, math.Pi/4).RX(0, math.Pi)
	be := &countingBackend{}
	res := lower(t, be, synth.Request{}, c)
	if calls := be.calls.Load(); calls != 0 || res.Stats.Rotations != 0 {
		t.Fatalf("trivial rotations were synthesized (%d calls)", calls)
	}
	if d := sim.UnitaryDistance(sim.Unitary(c), sim.Unitary(res.Circuit)); d > 1e-6 {
		t.Fatalf("trivial snap changed unitary: %v", d)
	}
}

// TestGridsynthLowerer: Rz workflow end to end on a small circuit.
func TestGridsynthLowerer(t *testing.T) {
	c := circuit.New(2)
	c.H(0).RZ(0, 0.8).CX(0, 1).RZ(1, 2.2)
	res := lower(t, lookup(t, "gridsynth"), synth.Request{Epsilon: 0.01}, c)
	if res.Stats.Rotations != 2 {
		t.Fatalf("rotations = %d", res.Stats.Rotations)
	}
	d := sim.UnitaryDistance(sim.Unitary(c), sim.Unitary(res.Circuit))
	if d > 0.03 {
		t.Fatalf("distance %v", d)
	}
}

// TestTrivialRotation: π/4-multiples are trivial, others are not — a
// trivial rotation lowers without a backend call, a generic one with one.
func TestTrivialRotation(t *testing.T) {
	for _, tc := range []struct {
		theta float64
		calls int64
	}{{math.Pi / 2, 0}, {0.7, 1}} {
		be := &countingBackend{}
		lower(t, be, synth.Request{}, circuit.New(1).RZ(0, tc.theta))
		if got := be.calls.Load(); got != tc.calls {
			t.Fatalf("RZ(%v): %d backend calls, want %d", tc.theta, got, tc.calls)
		}
	}
}

// TestWorkflowsOnQAOA: the headline comparison at miniature scale — the U3
// workflow must use fewer T gates than the Rz workflow at comparable
// circuit error (RQ3's mechanism).
func TestWorkflowsOnQAOA(t *testing.T) {
	ctx := context.Background()
	qaoa := gen.QAOAMaxCut(4, 1, 5)
	u3res, err := synth.NewPipeline(lookup(t, "trasyn"), synth.WithRequest(trasynReq),
		synth.WithIR(synth.IRU3), synth.WithPasses(synth.Transpile(), synth.Lower())).Run(ctx, qaoa)
	if err != nil {
		t.Fatal(err)
	}
	// Match gridsynth's budget to trasyn's per-rotation errors (paper
	// scales thresholds by the rotation ratio).
	epsRz := 0.02
	if u3res.Stats.Rotations > 0 {
		epsRz = u3res.Stats.ErrorBound / float64(u3res.Stats.Rotations)
	}
	rzres, err := synth.NewPipeline(lookup(t, "gridsynth"), synth.WithEpsilon(epsRz),
		synth.WithIR(synth.IRRz), synth.WithPasses(synth.Transpile(), synth.Lower())).Run(ctx, qaoa)
	if err != nil {
		t.Fatal(err)
	}
	tU3, tRz := u3res.Circuit.TCount(), rzres.Circuit.TCount()
	if tU3 == 0 || tRz == 0 {
		t.Fatalf("degenerate T counts: u3=%d rz=%d", tU3, tRz)
	}
	if tU3 > tRz {
		t.Fatalf("U3 workflow used more T gates than Rz workflow: %d vs %d", tU3, tRz)
	}
	// Both lowered circuits must still approximate the original.
	d := sim.UnitaryDistance(sim.Unitary(qaoa), sim.Unitary(u3res.Circuit))
	if d > u3res.Stats.ErrorBound*2+1e-5 {
		t.Fatalf("U3 workflow drifted: %v (bound %v)", d, u3res.Stats.ErrorBound)
	}
}
