package synth

import (
	"context"
	"testing"

	"repro/circuit/gen"
)

// TestLowerTightBudget: RandomCircuit(8, 40, 1) at circuit ε 1e-4 splits
// the budget into ~830 rotations near 1.2e-7. gridsynth must find every
// one of them (no ErrNoSolution), each within its acceptance bound
// share·(1+1e-6) + 1e-7, so the circuit's bound stays within their sum.
// That sum exceeds ε itself: the bound's +1e-7 slack is ~80% of a share.
func TestLowerTightBudget(t *testing.T) {
	const eps = 1e-4
	pl, err := NewPipelineFor("gridsynth", WithCircuitEpsilon(eps))
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Run(context.Background(), gen.RandomCircuit(8, 40, 1))
	if err != nil {
		t.Fatal(err)
	}
	n := res.Stats.Rotations
	t.Logf("%d rotations, bound %.4g", n, res.Stats.ErrorBound)
	if res.Stats.ErrorBound > eps*(1+1e-6)+float64(n)*1e-7 {
		t.Fatalf("bound %v exceeds the summed acceptance bounds of %d rotations", res.Stats.ErrorBound, n)
	}
}
