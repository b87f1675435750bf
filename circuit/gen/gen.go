// Package gen is the public circuit-workload generator library: every
// parameterized circuit family the benchmarks, examples, and tests
// share, promoted from internal/suite so external callers can build the
// same workloads the paper's evaluation runs on.
//
// Three groups:
//
//   - QAOA: MaxCut circuits on random 3-regular graphs with the §3.4
//     merge-friendly gate ordering (QAOAMaxCut);
//   - Hamiltonian simulation ("chemistry"): Pauli-term Hamiltonians
//     (TFIM, Heisenberg, XYChain, Molecular, MaxCutIsing, SpinGlass)
//     compiled to Trotter circuits via Hamiltonian.EvolutionCircuit;
//   - fault-tolerant algorithms: QFT, QPE, Cuccaro adders, GHZ/W states,
//     VQE ansatzes, Grover, random CX+U3 circuits (RandomCircuit), and
//     random Clifford+T circuits (RandomCliffordT — the optimizer
//     property-test workload).
//
// Everything is deterministic in its seed arguments; nothing reads the
// clock. internal/suite assembles the 192-circuit corpus from these
// generators.
package gen

import (
	"math/rand"

	"repro/circuit"
)

// RandomCliffordT returns a random n-qubit Clifford+T circuit of the
// given depth: uniform H/T/T†/S/Z single-qubit gates mixed with CXs on
// random distinct pairs (CX twice as likely). It is the canonical
// random workload for optimizer correctness properties — every gate is
// discrete, so T counts compare exactly. n must be ≥ 2.
func RandomCliffordT(n, depth int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
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
