package gen

import (
	"repro/circuit"
)

// Pauli identifies a single-qubit Pauli operator in a term.
type Pauli uint8

// Pauli labels.
const (
	PI Pauli = iota
	PX
	PY
	PZ
)

// PauliTerm is coeff · P_0 ⊗ P_1 ⊗ … (identity on unlisted qubits).
type PauliTerm struct {
	Coeff float64
	Ops   map[int]Pauli
}

// NewTerm builds a term from qubit→Pauli assignments.
func NewTerm(coeff float64, ops map[int]Pauli) PauliTerm {
	return PauliTerm{Coeff: coeff, Ops: ops}
}

// Hamiltonian is a sum of Pauli terms on N qubits.
type Hamiltonian struct {
	N     int
	Terms []PauliTerm
}

// EvolutionCircuit compiles exp(−i·H·t) by first-order Trotterization with
// the given number of steps: one parity-rotation gadget per term — basis
// changes (H for X, S†H for Y), a CNOT ladder onto the last involved qubit,
// RZ(2·coeff·t/steps), and the inverse ladder/basis. This is the standard
// structure Rustiq and similar Pauli-evolution compilers emit; adjacent
// gadgets with shared structure are left for the transpiler to fuse.
func (h Hamiltonian) EvolutionCircuit(t float64, steps int) *circuit.Circuit {
	c := circuit.New(h.N)
	if steps < 1 {
		steps = 1
	}
	dt := t / float64(steps)
	for s := 0; s < steps; s++ {
		for _, term := range h.Terms {
			appendPauliRotation(c, term, 2*term.Coeff*dt)
		}
	}
	return c
}

// appendPauliRotation emits exp(−i·θ/2·P) for the term's Pauli string.
func appendPauliRotation(c *circuit.Circuit, term PauliTerm, theta float64) {
	qubits := sortedQubits(term.Ops)
	if len(qubits) == 0 {
		return // global phase
	}
	// Basis changes into Z.
	for _, q := range qubits {
		switch term.Ops[q] {
		case PX:
			c.H(q)
		case PY:
			// Map Y → Z: apply H·S† (time order S† then H? matrix V with
			// V·Y·V† = Z: V = H·Sdg ⇒ time order Sdg, then H).
			c.Gate1(circuit.Sdg, q)
			c.H(q)
		}
	}
	// CNOT ladder computing the parity onto the last qubit.
	last := qubits[len(qubits)-1]
	for i := 0; i < len(qubits)-1; i++ {
		c.CX(qubits[i], qubits[i+1])
	}
	c.RZ(last, theta)
	for i := len(qubits) - 2; i >= 0; i-- {
		c.CX(qubits[i], qubits[i+1])
	}
	// Undo basis changes.
	for _, q := range qubits {
		switch term.Ops[q] {
		case PX:
			c.H(q)
		case PY:
			c.H(q)
			c.Gate1(circuit.S, q)
		}
	}
}

func sortedQubits(ops map[int]Pauli) []int {
	var qs []int
	for q, p := range ops {
		if p != PI {
			qs = append(qs, q)
		}
	}
	for i := 1; i < len(qs); i++ {
		for j := i; j > 0 && qs[j] < qs[j-1]; j-- {
			qs[j], qs[j-1] = qs[j-1], qs[j]
		}
	}
	return qs
}

// Matrix builds the dense matrix of the Hamiltonian for n ≤ 10 qubits
// (used by tests to verify the evolution circuits).
func (h Hamiltonian) Matrix() [][]complex128 {
	dim := 1 << uint(h.N)
	m := make([][]complex128, dim)
	for i := range m {
		m[i] = make([]complex128, dim)
	}
	for _, term := range h.Terms {
		// Walk basis states; Paulis act factor-wise.
		for col := 0; col < dim; col++ {
			row := col
			coeff := complex(term.Coeff, 0)
			for q, p := range term.Ops {
				bit := (col >> uint(q)) & 1
				switch p {
				case PX:
					row ^= 1 << uint(q)
				case PY:
					row ^= 1 << uint(q)
					if bit == 0 {
						coeff *= 1i
					} else {
						coeff *= -1i
					}
				case PZ:
					if bit == 1 {
						coeff = -coeff
					}
				}
			}
			m[row][col] += coeff
		}
	}
	return m
}
