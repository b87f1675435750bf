// Package zxopt holds no code of its own. The post-synthesis T-count
// optimizer that used to live here is optimize.FoldPhases and
// optimize.NewPeephole, driven to a fixed point by optimize.Run; these
// are the package's original checks, run against that implementation.
package zxopt

import (
	"math/rand"
	"testing"

	"repro/circuit"
	"repro/internal/sim"
	"repro/optimize"
)

func randomCliffordT(rng *rand.Rand, n, depth int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < depth; i++ {
		switch rng.Intn(7) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.T(rng.Intn(n))
		case 2:
			c.Tdg(rng.Intn(n))
		case 3:
			c.S(rng.Intn(n))
		case 4:
			c.Z(rng.Intn(n))
		case 5, 6:
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			c.CX(a, b)
		}
	}
	return c
}

func foldPhases(t *testing.T, c *circuit.Circuit) *circuit.Circuit {
	t.Helper()
	f, err := optimize.FoldPhases().Optimize(c)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFoldPhasesPreservesUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		c := randomCliffordT(rng, 3, 40)
		f := foldPhases(t, c)
		if d := sim.UnitaryDistance(sim.Unitary(c), sim.Unitary(f)); d > 1e-6 {
			t.Fatalf("FoldPhases changed unitary: %v", d)
		}
	}
}

func TestFoldPhasesMergesAcrossCX(t *testing.T) {
	// T(0)·CX(0,1)·T(0): the two T's share the control parity and must
	// merge into one S.
	c := circuit.New(2)
	c.T(0).CX(0, 1).T(0)
	f := foldPhases(t, c)
	if d := sim.UnitaryDistance(sim.Unitary(c), sim.Unitary(f)); d > 1e-7 {
		t.Fatalf("unitary changed: %v", d)
	}
	if f.TCount() != 0 {
		t.Fatalf("expected T count 0 after folding, got %d", f.TCount())
	}
}

func TestFoldPhasesRespectsHBarrier(t *testing.T) {
	// T·H·T on one qubit: the H separates parities; T count must stay 2.
	c := circuit.New(1)
	c.T(0).H(0).T(0)
	f := foldPhases(t, c)
	if f.TCount() != 2 {
		t.Fatalf("H barrier violated: T=%d", f.TCount())
	}
	if d := sim.UnitaryDistance(sim.Unitary(c), sim.Unitary(f)); d > 1e-7 {
		t.Fatal("unitary changed")
	}
}

func TestOptimizeNeverIncreasesT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	saved := 0
	for trial := 0; trial < 15; trial++ {
		c := randomCliffordT(rng, 3, 60)
		res, err := optimize.Run(c, optimize.FoldPhases(), optimize.NewPeephole(5))
		if err != nil {
			t.Fatal(err)
		}
		o := res.Circuit
		if d := sim.UnitaryDistance(sim.Unitary(c), sim.Unitary(o)); d > 1e-6 {
			t.Fatalf("Optimize changed unitary: %v", d)
		}
		if o.TCount() > c.TCount() {
			t.Fatalf("Optimize increased T count %d → %d", c.TCount(), o.TCount())
		}
		saved += c.TCount() - o.TCount()
	}
	if saved == 0 {
		t.Error("Optimize never saved a single T gate across 15 random circuits")
	}
}
