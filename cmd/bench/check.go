package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"repro/circuit"
	"repro/internal/gates"
	"repro/internal/qmat"
	"repro/internal/sim"
)

// withinEps is the acceptance test for one realized distance: the slack is
// the one gridsynth's own final check grants float rounding, so an answer
// the program could legitimately accept is never called a failure.
func withinEps(d, eps float64) bool { return d <= eps*(1+1e-6)+1e-7 }

// checkSeq verifies a sequence against the target the benchmark built from
// its own inputs: the product is multiplied out here and compared with
// qmat.Distance (Eq. 2), never taken from the error the program reports.
func checkSeq(target qmat.M2, seq gates.Sequence, eps float64) (float64, bool) {
	d := qmat.Distance(target, seq.Matrix())
	return d, withinEps(d, eps)
}

// opNormSlack bounds how far a circuit's realized error, measured on a
// state, may exceed the sum of its per-rotation Eq. (2) distances. Eq. (2)
// gives sin α for a rotation off by angle 2α, while errors compose in
// operator norm, 2 sin(α/2) = sin α / cos(α/2): within 1.2% for any
// distance up to 0.3, the loosest budget the workloads use.
const opNormSlack = 1.02

// stateSlack is the state distance float rounding alone can produce. It
// is a thousandth of the tightest error bound the workloads check, and far
// below the distance one flipped T gate adds.
const stateSlack = 1e-6

// checkCircuit verifies a lowered circuit against the circuit it was
// compiled from. Both run on the same seeded random input state in the
// statevector simulator; the distance between the two output states (up
// to global phase) must stay within the error bound the compile reports,
// and that bound within the circuit's budget eps. The output must also be
// Clifford+T throughout. It returns the state distance.
func checkCircuit(in, out *circuit.Circuit, bound, eps float64, rotations int, rng *rand.Rand) (float64, error) {
	for _, op := range out.Ops {
		if op.G.IsRotation() {
			return 0, fmt.Errorf("output still holds a %v rotation", op.G)
		}
	}
	// Every rotation's realized error may carry gridsynth's rounding slack.
	if bound > eps*(1+1e-6)+float64(rotations)*1e-7 {
		return 0, fmt.Errorf("error bound %.6g exceeds the budget %.6g", bound, eps)
	}
	psi := sim.NewState(in.N)
	norm := 0.0
	for i := range psi.Amp {
		psi.Amp[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(psi.Amp[i])*real(psi.Amp[i]) + imag(psi.Amp[i])*imag(psi.Amp[i])
	}
	for i := range psi.Amp {
		psi.Amp[i] /= complex(math.Sqrt(norm), 0)
	}
	want, got := psi.Clone(), psi.Clone()
	want.Run(in)
	got.Run(out)
	// Dividing by the norms cancels the drift rounding adds to each state's
	// length over hundreds of gates. What rounding is left still reads as a
	// distance near 1e-8 between two identical circuits, since
	// sqrt(1 - f²) magnifies it. stateSlack absorbs that.
	f := cmplx.Abs(sim.Inner(want, got)) / math.Sqrt(real(sim.Inner(want, want))*real(sim.Inner(got, got)))
	d := math.Sqrt(math.Max(0, 1-f*f))
	if d > bound*opNormSlack+stateSlack {
		return d, fmt.Errorf("output state is %.6g from the input circuit's, beyond the reported error bound %.6g", d, bound)
	}
	return d, nil
}
