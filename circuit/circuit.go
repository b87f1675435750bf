// Package circuit is the public multi-qubit circuit IR: a flat list of
// operations in time order, with OpenQASM 2.0 input/output (ParseQASM /
// (*Circuit).QASM) and the resource metrics the paper reports (T count,
// T depth, non-Pauli Clifford count, nontrivial rotation count).
//
// It is the currency of the synth pass-pipeline API: synth passes consume
// and produce *circuit.Circuit values, and user code can build circuits
// programmatically (the fluent Add/H/RZ/... constructors) or import them
// from QASM text. The package was promoted from internal/circuit so
// callers outside this module can construct inputs for and inspect
// outputs of synth.NewPipeline.
package circuit

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/gates"
	"repro/internal/qmat"
)

// GateType enumerates the circuit-level gate alphabet: the discrete
// Clifford+T gates, parameterized rotations, and two-qubit gates.
type GateType uint8

// Gate types. Single-qubit discrete gates mirror package gates; RX/RY/RZ/U3
// are the continuous rotations to be synthesized; CX/CZ are the two-qubit
// Cliffords.
const (
	I GateType = iota
	X
	Y
	Z
	H
	S
	Sdg
	T
	Tdg
	RX
	RY
	RZ
	U3
	CX
	CZ
	SWAP
	numGateTypes
)

var gateNames = [numGateTypes]string{
	"id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "u3", "cx", "cz", "swap",
}

// String returns the QASM-style mnemonic.
func (g GateType) String() string {
	if int(g) < len(gateNames) {
		return gateNames[g]
	}
	return fmt.Sprintf("gate(%d)", uint8(g))
}

// IsTwoQubit reports whether g acts on two qubits.
func (g GateType) IsTwoQubit() bool { return g == CX || g == CZ || g == SWAP }

// IsRotation reports whether g carries a continuous angle parameter.
func (g GateType) IsRotation() bool { return g == RX || g == RY || g == RZ || g == U3 }

// IsDiscrete1Q reports whether g is a parameter-free single-qubit gate.
func (g GateType) IsDiscrete1Q() bool { return g <= Tdg }

// Op is a single circuit operation. Q[1] is meaningful only for two-qubit
// gates (control = Q[0], target = Q[1] for CX). P holds up to three angles
// (θ, φ, λ for U3; θ for RX/RY/RZ).
type Op struct {
	G GateType
	Q [2]int
	P [3]float64
}

// Matrix1Q returns the 2x2 matrix of a single-qubit op.
func (o Op) Matrix1Q() qmat.M2 {
	switch o.G {
	case I:
		return qmat.I2()
	case X:
		return qmat.X
	case Y:
		return qmat.Y
	case Z:
		return qmat.Z
	case H:
		return qmat.H()
	case S:
		return qmat.S()
	case Sdg:
		return qmat.Sdg()
	case T:
		return qmat.T()
	case Tdg:
		return qmat.Tdg()
	case RX:
		return qmat.Rx(o.P[0])
	case RY:
		return qmat.Ry(o.P[0])
	case RZ:
		return qmat.Rz(o.P[0])
	case U3:
		return qmat.U3(o.P[0], o.P[1], o.P[2])
	}
	panic(fmt.Sprintf("circuit: Matrix1Q on %v", o.G))
}

// Circuit is a sequence of operations in time order (Ops[0] acts first).
type Circuit struct {
	N   int
	Ops []Op
}

// New returns an empty circuit on n qubits.
func New(n int) *Circuit { return &Circuit{N: n} }

// Clone returns a deep copy.
func (c *Circuit) Clone() *Circuit {
	return &Circuit{N: c.N, Ops: append([]Op(nil), c.Ops...)}
}

// Add appends an operation.
func (c *Circuit) Add(op Op) *Circuit {
	c.Ops = append(c.Ops, op)
	return c
}

// Convenience constructors.
func (c *Circuit) Gate1(g GateType, q int) *Circuit { return c.Add(Op{G: g, Q: [2]int{q, -1}}) }

// H adds a Hadamard.
func (c *Circuit) H(q int) *Circuit { return c.Gate1(H, q) }

// X adds a Pauli X.
func (c *Circuit) X(q int) *Circuit { return c.Gate1(X, q) }

// Z adds a Pauli Z.
func (c *Circuit) Z(q int) *Circuit { return c.Gate1(Z, q) }

// S adds an S gate.
func (c *Circuit) S(q int) *Circuit { return c.Gate1(S, q) }

// T adds a T gate.
func (c *Circuit) T(q int) *Circuit { return c.Gate1(T, q) }

// Tdg adds a T† gate.
func (c *Circuit) Tdg(q int) *Circuit { return c.Gate1(Tdg, q) }

// RX adds an x-rotation.
func (c *Circuit) RX(q int, theta float64) *Circuit {
	return c.Add(Op{G: RX, Q: [2]int{q, -1}, P: [3]float64{theta}})
}

// RY adds a y-rotation.
func (c *Circuit) RY(q int, theta float64) *Circuit {
	return c.Add(Op{G: RY, Q: [2]int{q, -1}, P: [3]float64{theta}})
}

// RZ adds a z-rotation.
func (c *Circuit) RZ(q int, theta float64) *Circuit {
	return c.Add(Op{G: RZ, Q: [2]int{q, -1}, P: [3]float64{theta}})
}

// U3Gate adds a general single-qubit rotation.
func (c *Circuit) U3Gate(q int, theta, phi, lambda float64) *Circuit {
	return c.Add(Op{G: U3, Q: [2]int{q, -1}, P: [3]float64{theta, phi, lambda}})
}

// CX adds a controlled-X (control ctl, target tgt).
func (c *Circuit) CX(ctl, tgt int) *Circuit { return c.Add(Op{G: CX, Q: [2]int{ctl, tgt}}) }

// CZ adds a controlled-Z.
func (c *Circuit) CZ(a, b int) *Circuit { return c.Add(Op{G: CZ, Q: [2]int{a, b}}) }

// Swap adds a SWAP of two qubits.
func (c *Circuit) Swap(a, b int) *Circuit { return c.Add(Op{G: SWAP, Q: [2]int{a, b}}) }

// TCount returns the number of T/T† gates (rotations are NOT counted; run
// the synthesis pipeline first to lower them).
func (c *Circuit) TCount() int {
	n := 0
	for _, op := range c.Ops {
		if op.G == T || op.G == Tdg {
			n++
		}
	}
	return n
}

// TDepth returns the T count along the critical path (paper §4, Metrics):
// the number of T-layers when gates are scheduled greedily.
func (c *Circuit) TDepth() int {
	depth := make([]int, c.N)
	for _, op := range c.Ops {
		if op.G.IsTwoQubit() {
			d := depth[op.Q[0]]
			if depth[op.Q[1]] > d {
				d = depth[op.Q[1]]
			}
			depth[op.Q[0]], depth[op.Q[1]] = d, d
			continue
		}
		if op.G == T || op.G == Tdg {
			depth[op.Q[0]]++
		}
	}
	max := 0
	for _, d := range depth {
		if d > max {
			max = d
		}
	}
	return max
}

// CliffordCount returns the number of non-Pauli Clifford gates: H, S, S†
// and the two-qubit gates (Paulis are free under Pauli-frame tracking).
func (c *Circuit) CliffordCount() int {
	n := 0
	for _, op := range c.Ops {
		switch op.G {
		case H, S, Sdg, CX, CZ:
			n++
		case SWAP:
			n += 3 // SWAP = 3 CX
		}
	}
	return n
}

// Metrics is a point-in-time snapshot of every resource metric the paper
// reports — the currency of before/after comparisons (the optimize
// subsystem records one per optimizer run, and stats payloads derive
// their deltas from a pair).
type Metrics struct {
	Qubits    int `json:"qubits"`
	Ops       int `json:"ops"`
	Rotations int `json:"rotations"`
	TCount    int `json:"t_count"`
	TDepth    int `json:"t_depth"`
	Clifford  int `json:"clifford"`
	TwoQubit  int `json:"two_qubit"`
}

// Metrics computes the full metric snapshot in one pass-friendly call.
func (c *Circuit) Metrics() Metrics {
	return Metrics{
		Qubits:    c.N,
		Ops:       len(c.Ops),
		Rotations: c.CountRotations(),
		TCount:    c.TCount(),
		TDepth:    c.TDepth(),
		Clifford:  c.CliffordCount(),
		TwoQubit:  c.TwoQubitCount(),
	}
}

// TwoQubitCount returns the number of two-qubit (CX/CZ/SWAP) gates.
func (c *Circuit) TwoQubitCount() int {
	n := 0
	for _, op := range c.Ops {
		if op.G.IsTwoQubit() {
			n++
		}
	}
	return n
}

// trivialTol is the tolerance for classifying rotations as trivial.
const trivialTol = 1e-9

// TrivialAngle reports whether θ is an integer multiple of π/4 (such
// rotations cost at most one T gate — footnote 3 of the paper).
func TrivialAngle(theta float64) bool {
	r := math.Mod(theta, math.Pi/4)
	if r < 0 {
		r += math.Pi / 4
	}
	return r < trivialTol || math.Pi/4-r < trivialTol
}

// CountRotations returns the number of nontrivial rotations: RX/RY/RZ with
// angle not a multiple of π/4, and U3 gates whose matrix needs more than
// one T gate (not within tolerance of a T-count-≤1 operator).
func (c *Circuit) CountRotations() int {
	n := 0
	for _, op := range c.Ops {
		if op.G == RX || op.G == RY || op.G == RZ {
			if !TrivialAngle(op.P[0]) {
				n++
			}
		} else if op.G == U3 {
			if !trivialU3(op) {
				n++
			}
		}
	}
	return n
}

// trivialU3 reports whether the U3's matrix is (up to phase) an operator
// with T count ≤ 1.
func trivialU3(op Op) bool {
	m := op.Matrix1Q()
	for _, e := range gates.Shared(1).Collect(0, 1) {
		if qmat.Distance(m, e.M) < 1e-7 {
			return true
		}
	}
	return false
}

// QASM renders the circuit as OpenQASM 2.0.
func (c *Circuit) QASM() string {
	var b strings.Builder
	fmt.Fprintf(&b, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\n", c.N)
	for _, op := range c.Ops {
		switch {
		case op.G == U3:
			fmt.Fprintf(&b, "u3(%g,%g,%g) q[%d];\n", op.P[0], op.P[1], op.P[2], op.Q[0])
		case op.G.IsRotation():
			fmt.Fprintf(&b, "%s(%g) q[%d];\n", op.G, op.P[0], op.Q[0])
		case op.G.IsTwoQubit():
			fmt.Fprintf(&b, "%s q[%d],q[%d];\n", op.G, op.Q[0], op.Q[1])
		default:
			fmt.Fprintf(&b, "%s q[%d];\n", op.G, op.Q[0])
		}
	}
	return b.String()
}

// FromSequence converts a gates.Sequence (matrix-product order, leftmost
// applied last) into time-ordered ops on qubit q.
func FromSequence(seq gates.Sequence, q int) []Op {
	out := make([]Op, 0, len(seq))
	for i := len(seq) - 1; i >= 0; i-- {
		var g GateType
		switch seq[i] {
		case gates.I:
			continue
		case gates.X:
			g = X
		case gates.Y:
			g = Y
		case gates.Z:
			g = Z
		case gates.H:
			g = H
		case gates.S:
			g = S
		case gates.Sdg:
			g = Sdg
		case gates.T:
			g = T
		case gates.Tdg:
			g = Tdg
		}
		out = append(out, Op{G: g, Q: [2]int{q, -1}})
	}
	return out
}
