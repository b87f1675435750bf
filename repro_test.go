// Package repro is a from-scratch Go reproduction of "Reducing T Gates
// with Unitary Synthesis" (ASPLOS 2026): trasyn, a tensor-network-guided
// synthesizer that compiles arbitrary single-qubit unitaries directly into
// Clifford+T sequences, together with the full evaluation stack — a
// Ross–Selinger gridsynth baseline, a Solovay–Kitaev baseline, a
// Synthetiq-style annealer, a circuit IR and transpiler, simulators and a
// 192-circuit benchmark suite.
//
// The root package holds no code. Its tests check the paper's headline
// claims through the synth API, and its benchmarks regenerate the paper's
// tables and figures; start from package synth.
package repro

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/circuit"
	"repro/internal/gates"
	"repro/internal/qmat"
	"repro/internal/sk"
	"repro/internal/suite"
	"repro/internal/transpile"
	"repro/synth"
)

// synthesize runs one registered backend on u and fails the test on error.
func synthesize(t *testing.T, backend string, u qmat.M2, req synth.Request) synth.Result {
	t.Helper()
	be, ok := synth.Lookup(backend)
	if !ok {
		t.Fatalf("backend %s not registered", backend)
	}
	res, err := be.Synthesize(context.Background(), u, req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFacadeSynthesize: the headline API must produce verified sequences.
func TestFacadeSynthesize(t *testing.T) {
	u := qmat.HaarRandom(rand.New(rand.NewSource(1)))
	res := synthesize(t, "trasyn", u, synth.Request{Samples: 800, Seed: synth.Seed(2)})
	if res.Seq == nil {
		t.Fatal("no sequence")
	}
	if d := qmat.Distance(u, res.Seq.Matrix()); math.Abs(d-res.Error) > 1e-6 {
		t.Fatalf("reported %v realized %v", res.Error, d)
	}
	if res.TCount != res.Seq.TCount() {
		t.Fatal("T count metadata mismatch")
	}
}

// TestFacadeHeadlineClaim: trasyn must beat the three-rotation gridsynth
// baseline on T count at a comparable error — the paper's core claim,
// verified through the public API alone.
func TestFacadeHeadlineClaim(t *testing.T) {
	wins, total := 0, 0
	for i := int64(0); i < 5; i++ {
		u := qmat.HaarRandom(rand.New(rand.NewSource(10 + i)))
		res := synthesize(t, "trasyn", u, synth.Request{Samples: 1500, Seed: synth.Seed(i + 1)})
		g := synthesize(t, "gridsynth", u, synth.Request{Epsilon: math.Max(res.Error, 1e-4)})
		total++
		if g.TCount > res.TCount {
			wins++
		}
	}
	if wins < total {
		t.Fatalf("trasyn won only %d/%d against gridsynth", wins, total)
	}
}

func TestFacadeGridsynthRz(t *testing.T) {
	res := synthesize(t, "gridsynth", qmat.Rz(0.731), synth.Request{Epsilon: 1e-3})
	if res.Error > 1e-3 {
		t.Fatalf("error %v > 1e-3", res.Error)
	}
	if d := qmat.Distance(qmat.Rz(0.731), res.Seq.Matrix()); d > 1e-3 {
		t.Fatalf("sequence does not approximate Rz: %v", d)
	}
}

func TestFacadeSolovayKitaev(t *testing.T) {
	u := qmat.HaarRandom(rand.New(rand.NewSource(3)))
	eng := sk.NewEngine(gates.Shared(4))
	seq0, e0 := eng.Synthesize(u, 0)
	seq1, e1 := eng.Synthesize(u, 1)
	if seq0 == nil || seq1 == nil {
		t.Fatal("SK returned nil")
	}
	if e1 > e0*1.5 {
		t.Fatalf("SK depth 1 much worse than depth 0: %v vs %v", e1, e0)
	}
}

func TestFacadeTranspile(t *testing.T) {
	c := circuit.New(2)
	c.RZ(0, 0.4).H(0).RZ(0, 0.9).CX(0, 1).RX(1, 1.2)
	u3, _ := transpile.BestSetting(c, transpile.BasisU3)
	rz, _ := transpile.BestSetting(c, transpile.BasisRz)
	if u3.CountRotations() > rz.CountRotations() {
		t.Fatalf("U3 IR has more rotations (%d) than Rz IR (%d)",
			u3.CountRotations(), rz.CountRotations())
	}
}

func TestFacadeBenchmarkSuite(t *testing.T) {
	if got := len(suite.Suite()); got != 192 {
		t.Fatalf("suite has %d circuits, want 192", got)
	}
}
