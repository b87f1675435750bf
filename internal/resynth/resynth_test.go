// Package resynth holds no code of its own. The BQSKit-substitute
// resynthesis of Figure 12 that used to live here is optimize.ZXZXZ
// (the "zxzxz" registry entry); these are the package's original
// checks, run against that implementation.
package resynth

import (
	"math/rand"
	"testing"

	"repro/circuit"
	"repro/internal/sim"
	"repro/optimize"
)

func resynthesize(t *testing.T, c *circuit.Circuit) *circuit.Circuit {
	t.Helper()
	r, err := optimize.ZXZXZ().Optimize(c)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestResynthesizePreservesUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 15; trial++ {
		c := circuit.New(3)
		for i := 0; i < 20; i++ {
			switch rng.Intn(4) {
			case 0:
				c.U3Gate(rng.Intn(3), rng.Float64()*3, rng.Float64()*6, rng.Float64()*6)
			case 1:
				c.RZ(rng.Intn(3), rng.Float64()*6)
			case 2:
				c.H(rng.Intn(3))
			case 3:
				a := rng.Intn(3)
				c.CX(a, (a+1)%3)
			}
		}
		r := resynthesize(t, c)
		if d := sim.UnitaryDistance(sim.Unitary(c), sim.Unitary(r)); d > 1e-6 {
			t.Fatalf("Resynthesize changed unitary: %v", d)
		}
		for _, op := range r.Ops {
			if op.G == circuit.U3 || op.G == circuit.RX || op.G == circuit.RY {
				t.Fatal("Resynthesize left a non-RZ rotation")
			}
		}
	}
}

// TestResynthesizeInflatesRotations: the pass must increase the rotation
// count relative to the merged U3 form — BQSKit's observed behavior in
// Fig. 12 (each nontrivial U3 becomes up to 3 nontrivial RZs).
func TestResynthesizeInflatesRotations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := circuit.New(2)
	for i := 0; i < 10; i++ {
		c.U3Gate(i%2, rng.Float64()*3, rng.Float64()*6, rng.Float64()*6)
		c.CX(0, 1)
	}
	merged := c.Clone()
	r := resynthesize(t, c)
	if r.CountRotations() <= merged.CountRotations() {
		t.Fatalf("expected rotation inflation: %d → %d",
			merged.CountRotations(), r.CountRotations())
	}
}
