// Package sim provides the simulation substrate for the evaluation:
// a statevector simulator, Monte-Carlo Pauli-twirl trajectories for
// larger circuits, and Pauli-transfer-matrix (PTM) composition for exact
// single-qubit channel arithmetic (used in the logical-vs-synthesis-error
// study, RQ2). The exact density-matrix simulator with depolarizing noise
// lives in density_test.go, as the oracle the trajectory estimators are
// tested against.
package sim

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"repro/circuit"
	"repro/internal/qmat"
)

// State is a pure state on N qubits; qubit 0 is the least significant bit
// of the amplitude index.
type State struct {
	N   int
	Amp []complex128
}

// NewState returns |0…0⟩ on n qubits.
func NewState(n int) *State {
	if n < 0 || n > 28 {
		panic(fmt.Sprintf("sim: unreasonable qubit count %d", n))
	}
	s := &State{N: n, Amp: make([]complex128, 1<<uint(n))}
	s.Amp[0] = 1
	return s
}

// Clone returns a deep copy.
func (s *State) Clone() *State {
	return &State{N: s.N, Amp: append([]complex128(nil), s.Amp...)}
}

// Apply1Q applies a 2x2 unitary to qubit q.
func (s *State) Apply1Q(q int, m qmat.M2) {
	bit := 1 << uint(q)
	for i := 0; i < len(s.Amp); i++ {
		if i&bit != 0 {
			continue
		}
		j := i | bit
		a0, a1 := s.Amp[i], s.Amp[j]
		s.Amp[i] = m[0][0]*a0 + m[0][1]*a1
		s.Amp[j] = m[1][0]*a0 + m[1][1]*a1
	}
}

// ApplyCX applies a controlled-X.
func (s *State) ApplyCX(ctl, tgt int) {
	cb, tb := 1<<uint(ctl), 1<<uint(tgt)
	for i := 0; i < len(s.Amp); i++ {
		if i&cb != 0 && i&tb == 0 {
			j := i | tb
			s.Amp[i], s.Amp[j] = s.Amp[j], s.Amp[i]
		}
	}
}

// ApplyCZ applies a controlled-Z.
func (s *State) ApplyCZ(a, b int) {
	ab, bb := 1<<uint(a), 1<<uint(b)
	for i := 0; i < len(s.Amp); i++ {
		if i&ab != 0 && i&bb != 0 {
			s.Amp[i] = -s.Amp[i]
		}
	}
}

// ApplySwap swaps two qubits.
func (s *State) ApplySwap(a, b int) {
	ab, bb := 1<<uint(a), 1<<uint(b)
	for i := 0; i < len(s.Amp); i++ {
		if i&ab != 0 && i&bb == 0 {
			j := i&^ab | bb
			s.Amp[i], s.Amp[j] = s.Amp[j], s.Amp[i]
		}
	}
}

// ApplyOp applies one circuit operation.
func (s *State) ApplyOp(op circuit.Op) {
	switch op.G {
	case circuit.CX:
		s.ApplyCX(op.Q[0], op.Q[1])
	case circuit.CZ:
		s.ApplyCZ(op.Q[0], op.Q[1])
	case circuit.SWAP:
		s.ApplySwap(op.Q[0], op.Q[1])
	case circuit.I:
	default:
		s.Apply1Q(op.Q[0], op.Matrix1Q())
	}
}

// Run applies a whole circuit.
func (s *State) Run(c *circuit.Circuit) {
	for _, op := range c.Ops {
		s.ApplyOp(op)
	}
}

// RunCircuit returns the state c|0…0⟩.
func RunCircuit(c *circuit.Circuit) *State {
	s := NewState(c.N)
	s.Run(c)
	return s
}

// Inner returns ⟨a|b⟩.
func Inner(a, b *State) complex128 {
	if a.N != b.N {
		panic("sim: qubit count mismatch")
	}
	var acc complex128
	for i := range a.Amp {
		acc += cmplx.Conj(a.Amp[i]) * b.Amp[i]
	}
	return acc
}

// StateFidelity returns |⟨a|b⟩|².
func StateFidelity(a, b *State) float64 {
	v := cmplx.Abs(Inner(a, b))
	return v * v
}

// Norm returns ⟨s|s⟩.
func (s *State) Norm() float64 {
	n := 0.0
	for _, a := range s.Amp {
		n += real(a)*real(a) + imag(a)*imag(a)
	}
	return n
}

// Unitary builds the full 2^n × 2^n matrix of the circuit (column i =
// c|i⟩); intended for verification at small n (n ≤ 10).
func Unitary(c *circuit.Circuit) [][]complex128 {
	dim := 1 << uint(c.N)
	u := make([][]complex128, dim)
	for col := 0; col < dim; col++ {
		s := NewState(c.N)
		s.Amp[0] = 0
		s.Amp[col] = 1
		s.Run(c)
		for row := 0; row < dim; row++ {
			if u[row] == nil {
				u[row] = make([]complex128, dim)
			}
			u[row][col] = s.Amp[row]
		}
	}
	return u
}

// UnitaryDistance is Eq. (2) generalized to N dimensions:
// sqrt(1 − |Tr(A†B)|²/N²).
func UnitaryDistance(a, b [][]complex128) float64 {
	n := len(a)
	var tr complex128
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			tr += cmplx.Conj(a[i][j]) * b[i][j]
		}
	}
	t := cmplx.Abs(tr) / float64(n)
	d := 1 - t*t
	if d < 0 {
		return 0
	}
	return math.Sqrt(d)
}

// pauliMats indexes I, X, Y, Z.
var pauliMats = [4]qmat.M2{qmat.I2(), qmat.X, qmat.Y, qmat.Z}

// NoiseModel configures depolarizing noise injection.
type NoiseModel struct {
	// Rate is the depolarizing probability per noisy gate.
	Rate float64
	// TGatesOnly restricts noise to T/T† gates (the paper's conservative
	// RQ2 model); otherwise all non-Pauli gates are noisy (RQ4 model).
	TGatesOnly bool
}

// noisy reports whether the model attaches noise to op.
func (nm NoiseModel) noisy(op circuit.Op) bool {
	if nm.Rate <= 0 {
		return false
	}
	if nm.TGatesOnly {
		return op.G == circuit.T || op.G == circuit.Tdg
	}
	switch op.G {
	case circuit.I, circuit.X, circuit.Y, circuit.Z:
		return false
	}
	return true
}

// RunTrajectory runs the circuit once, stochastically inserting Pauli
// errors after noisy gates (depolarizing = uniform X/Y/Z with prob. Rate).
func RunTrajectory(c *circuit.Circuit, nm NoiseModel, rng *rand.Rand) *State {
	s := NewState(c.N)
	for _, op := range c.Ops {
		s.ApplyOp(op)
		if nm.noisy(op) {
			qubits := []int{op.Q[0]}
			if op.G.IsTwoQubit() {
				qubits = append(qubits, op.Q[1])
			}
			for _, q := range qubits {
				if rng.Float64() < nm.Rate {
					s.Apply1Q(q, pauliMats[1+rng.Intn(3)])
				}
			}
		}
	}
	return s
}

// TrajectoryFidelity estimates ⟨ψ_ideal|ρ_noisy|ψ_ideal⟩ by Monte-Carlo:
// the mean of |⟨ψ_ideal|ψ_traj⟩|² over trajectories (exact in expectation
// because depolarizing is a stochastic Pauli channel).
func TrajectoryFidelity(c *circuit.Circuit, nm NoiseModel, trials int, rng *rand.Rand) float64 {
	ideal := RunCircuit(c)
	sum := 0.0
	for i := 0; i < trials; i++ {
		t := RunTrajectory(c, nm, rng)
		sum += StateFidelity(ideal, t)
	}
	return sum / float64(trials)
}
