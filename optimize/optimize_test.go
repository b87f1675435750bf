package optimize

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/circuit"
	"repro/circuit/gen"
	"repro/internal/qmat"
	"repro/internal/sim"
)

// randomMixed builds a random 2–3 qubit circuit mixing discrete
// Clifford+T gates, CXs, and continuous rotations (RZ and U3) — the
// workload every registered optimizer must preserve the unitary on.
func randomMixed(rng *rand.Rand, n, depth int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < depth; i++ {
		switch rng.Intn(10) {
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
		case 5:
			c.RZ(rng.Intn(n), rng.Float64()*2*math.Pi)
		case 6:
			c.U3Gate(rng.Intn(n), rng.Float64()*math.Pi, rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi)
		default:
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			c.CX(a, b)
		}
	}
	return c
}

// TestEveryRegisteredOptimizerPreservesUnitary is the subsystem's core
// property: each registry entry preserves the circuit unitary up to
// global phase on random 2–3 qubit circuits (UnitaryDistance is
// global-phase invariant).
func TestEveryRegisteredOptimizerPreservesUnitary(t *testing.T) {
	names := List()
	if len(names) < 3 {
		t.Fatalf("expected ≥ 3 registered optimizers, have %v", names)
	}
	for _, name := range names {
		o, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for trial := 0; trial < 25; trial++ {
				n := 2 + trial%2
				c := randomMixed(rng, n, 30)
				out, err := o.Optimize(c)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if d := sim.UnitaryDistance(sim.Unitary(c), sim.Unitary(out)); d > 1e-6 {
					t.Fatalf("trial %d: %s changed the unitary by %v", trial, name, d)
				}
			}
		})
	}
}

// TestDriverPreservesUnitaryAndNeverIncreasesT: the default fixed-point
// run keeps the unitary and can only lower the T count; across enough
// random circuits it must save at least one T overall.
func TestDriverPreservesUnitaryAndNeverIncreasesT(t *testing.T) {
	saved := 0
	for trial := 0; trial < 15; trial++ {
		c := gen.RandomCliffordT(3, 60, int64(trial+1))
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if d := sim.UnitaryDistance(sim.Unitary(c), sim.Unitary(res.Circuit)); d > 1e-6 {
			t.Fatalf("trial %d: driver changed unitary: %v", trial, d)
		}
		if res.After.TCount > res.Before.TCount {
			t.Fatalf("trial %d: driver increased T %d → %d", trial, res.Before.TCount, res.After.TCount)
		}
		if got := res.Circuit.TCount(); got != res.After.TCount {
			t.Fatalf("trial %d: After metrics stale: %d vs %d", trial, res.After.TCount, got)
		}
		if res.TSaved() != res.Before.TCount-res.After.TCount {
			t.Fatalf("trial %d: TSaved inconsistent", trial)
		}
		saved += res.TSaved()
	}
	if saved == 0 {
		t.Error("driver never saved a single T gate across 15 random circuits")
	}
}

// TestDriverReachesFixedPoint: a second run on the driver's output finds
// nothing, and the result reports convergence with per-rule hit counters.
func TestDriverReachesFixedPoint(t *testing.T) {
	c := gen.RandomCliffordT(3, 120, 9)
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("driver hit the safety ceiling on a %d-op circuit (%d iterations)", len(c.Ops), res.Iterations)
	}
	if res.Iterations < 1 || res.Iterations > DefaultMaxIterations {
		t.Fatalf("implausible iteration count %d", res.Iterations)
	}
	if res.TSaved() > 0 && len(res.RuleHits) == 0 {
		t.Fatal("T gates saved but no rule hit recorded")
	}
	again, err := Run(res.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if again.TSaved() != 0 || again.After.Clifford != again.Before.Clifford {
		t.Fatalf("not a fixed point: second run saved T %d, Clifford %d → %d",
			again.TSaved(), again.Before.Clifford, again.After.Clifford)
	}
}

// TestDriverSafetyCeiling: MaxIterations caps the sweeps and marks the
// run unconverged when work remained.
func TestDriverSafetyCeiling(t *testing.T) {
	// A circuit where folding then peephole keeps improving for at least
	// two sweeps: parity-foldable T pairs interleaved with reducible runs.
	c := circuit.New(2)
	for i := 0; i < 8; i++ {
		c.T(0).CX(0, 1).T(0).CX(0, 1)
		c.H(1).S(1).S(1).H(1)
	}
	d := NewDriver()
	d.MaxIterations = 1
	res, err := d.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Fatalf("ceiling ignored: %d iterations", res.Iterations)
	}
	full, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if full.Iterations <= 1 {
		t.Skipf("workload converged in one sweep; ceiling unobservable")
	}
	if res.Converged {
		t.Fatal("capped run claims convergence")
	}
}

// TestFoldPhasesMergesAcrossCX: T(0)·CX(0,1)·T(0) — the two T's share
// the control parity and must merge into one S.
func TestFoldPhasesMergesAcrossCX(t *testing.T) {
	c := circuit.New(2)
	c.T(0).CX(0, 1).T(0)
	f, err := FoldPhases().Optimize(c)
	if err != nil {
		t.Fatal(err)
	}
	if d := sim.UnitaryDistance(sim.Unitary(c), sim.Unitary(f)); d > 1e-7 {
		t.Fatalf("unitary changed: %v", d)
	}
	if f.TCount() != 0 {
		t.Fatalf("expected T count 0 after folding, got %d", f.TCount())
	}
}

// TestFoldPhasesRespectsHBarrier: T·H·T on one qubit — the H separates
// parities; the T count must stay 2.
func TestFoldPhasesRespectsHBarrier(t *testing.T) {
	c := circuit.New(1)
	c.T(0).H(0).T(0)
	f, err := FoldPhases().Optimize(c)
	if err != nil {
		t.Fatal(err)
	}
	if f.TCount() != 2 {
		t.Fatalf("H barrier violated: T=%d", f.TCount())
	}
	if d := sim.UnitaryDistance(sim.Unitary(c), sim.Unitary(f)); d > 1e-7 {
		t.Fatalf("unitary changed: %v", d)
	}
}

// TestFoldPhasesMergesParityPattern: CX(0,1)·T(1)·CX(0,1)·…·CX(0,1)·T(1)·
// CX(0,1) — both T's act on the two-variable parity x0⊕x1 once the
// peephole has cancelled the H·H between them, and must merge.
func TestFoldPhasesMergesParityPattern(t *testing.T) {
	c := circuit.New(2)
	c.CX(0, 1).T(1).CX(0, 1).H(0).H(0).CX(0, 1).T(1).CX(0, 1)
	res, err := Run(c, FoldPhases(), NewPeephole(4))
	if err != nil {
		t.Fatal(err)
	}
	f := res.Circuit
	if d := sim.UnitaryDistance(sim.Unitary(c), sim.Unitary(f)); d > 1e-6 {
		t.Fatalf("unitary changed: %v", d)
	}
	if f.TCount() != 0 {
		t.Fatalf("expected parity T's to fold to S: T=%d", f.TCount())
	}
}

// TestPeepholePreservesUnitaryAndShrinks: the peephole alone keeps the
// unitary, never raises the T count, and shrinks random Clifford+T runs.
func TestPeepholePreservesUnitaryAndShrinks(t *testing.T) {
	before, after := 0, 0
	for trial := 0; trial < 20; trial++ {
		c := gen.RandomCliffordT(2, 50, int64(100+trial))
		p, err := NewPeephole(5).Optimize(c)
		if err != nil {
			t.Fatal(err)
		}
		if d := sim.UnitaryDistance(sim.Unitary(c), sim.Unitary(p)); d > 1e-6 {
			t.Fatalf("trial %d: peephole changed the unitary: %v", trial, d)
		}
		if p.TCount() > c.TCount() {
			t.Fatalf("trial %d: peephole increased T count %d → %d", trial, c.TCount(), p.TCount())
		}
		before, after = before+len(c.Ops), after+len(p.Ops)
	}
	if after >= before {
		t.Fatalf("peephole never shrank a circuit: %d → %d ops", before, after)
	}
}

// TestEmitPhaseAngles: the discrete-gate table for every π/4 multiple
// matches the RZ it stands in for.
func TestEmitPhaseAngles(t *testing.T) {
	for m := 0; m < 8; m++ {
		c := circuit.New(1)
		emitPhase(c, 0, float64(m)*math.Pi/4)
		ref := circuit.New(1)
		ref.RZ(0, float64(m)*math.Pi/4)
		if d := sim.UnitaryDistance(sim.Unitary(c), sim.Unitary(ref)); d > 1e-7 {
			t.Fatalf("emitPhase(%dπ/4) wrong: %v", m, d)
		}
		if c.CountRotations() != 0 {
			t.Fatalf("emitPhase(%dπ/4) left a rotation", m)
		}
	}
}

// TestZXZXZEmitsRzBasisAndInflates: the resynthesis rule leaves only RZ
// rotations and — on merged U3 input — inflates the rotation count, the
// Figure 12 behavior the driver's best-cost selection must never let
// leak into a T-count-optimizing run.
func TestZXZXZEmitsRzBasisAndInflates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := circuit.New(2)
	for i := 0; i < 10; i++ {
		c.U3Gate(i%2, rng.Float64()*3, rng.Float64()*6, rng.Float64()*6)
		c.CX(0, 1)
	}
	r, err := ZXZXZ().Optimize(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range r.Ops {
		if op.G == circuit.U3 || op.G == circuit.RX || op.G == circuit.RY {
			t.Fatal("zxzxz left a non-RZ rotation")
		}
	}
	if r.CountRotations() <= c.CountRotations() {
		t.Fatalf("expected rotation inflation: %d → %d", c.CountRotations(), r.CountRotations())
	}
	// The driver must shield a T-count run from the inflation: with zxzxz
	// in the chain the best-cost circuit still never regresses.
	res, err := Run(c, ZXZXZ(), FoldPhases(), NewPeephole(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.After.TCount > res.Before.TCount || res.After.Clifford > res.Before.Clifford {
		t.Fatalf("driver regressed under zxzxz: %+v → %+v", res.Before, res.After)
	}
}

// resynthesize runs the zxzxz rule alone — the BQSKit-substitute
// resynthesis of Figure 12.
func resynthesize(t *testing.T, c *circuit.Circuit) *circuit.Circuit {
	t.Helper()
	r, err := ZXZXZ().Optimize(c)
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

// TestZXZXZTemplate: RZ(φ+π)·SX·RZ(θ+π)·SX·RZ(λ), with SX = H·S·H, is
// U3(θ, φ, λ) up to global phase — the identity the zxzxz rule emits.
func TestZXZXZTemplate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sx := qmat.MulAll(qmat.H(), qmat.S(), qmat.H())
	for i := 0; i < 200; i++ {
		th := rng.Float64() * math.Pi
		ph := (rng.Float64() - 0.5) * 4 * math.Pi
		la := (rng.Float64() - 0.5) * 4 * math.Pi
		v := qmat.MulAll(qmat.Rz(ph+math.Pi), sx, qmat.Rz(th+math.Pi), sx, qmat.Rz(la))
		if d := qmat.Distance(qmat.U3(th, ph, la), v); d > 1e-7 {
			t.Fatalf("ZXZXZ template broken: θ=%v φ=%v λ=%v d=%v", th, ph, la, d)
		}
	}
}

// TestRegistry: duplicate and invalid registrations fail; lookups and
// listings behave.
func TestRegistry(t *testing.T) {
	if err := Register(nil); err == nil {
		t.Fatal("Register(nil) succeeded")
	}
	if err := Register(FoldPhases()); err == nil {
		t.Fatal("duplicate Register succeeded")
	}
	for _, want := range []string{"foldphases", "peephole", "zxzxz"} {
		if _, ok := Lookup(want); !ok {
			t.Fatalf("built-in %q not registered (have %v)", want, List())
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup accepted an unknown name")
	}
	if _, err := NewDriverNamed("nope"); err == nil {
		t.Fatal("NewDriverNamed accepted an unknown name")
	}
	d, err := NewDriverNamed("foldphases", "peephole")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(d.Rules()); got != "[foldphases peephole]" {
		t.Fatalf("rule order: %s", got)
	}
}
