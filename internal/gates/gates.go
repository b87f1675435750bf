// Package gates defines the discrete Clifford+T gate alphabet, the
// single-qubit Clifford group, and the step-0 enumeration of the paper:
// all unique Clifford+T matrices (up to global phase) within a T-count
// budget, via Matsumoto–Amano normal forms, together with the lookup table
// used by trasyn's post-processing and by exact synthesis.
package gates

import (
	"fmt"
	"strings"

	"repro/internal/qmat"
	"repro/internal/ring"
)

// Gate is a discrete single-qubit gate from the Clifford+T alphabet.
type Gate uint8

// The gate alphabet. Pauli gates are free in error-corrected execution;
// H, S, S† count as Clifford resources; T, T† consume a magic state each.
const (
	I Gate = iota
	X
	Y
	Z
	H
	S
	Sdg
	T
	Tdg
	numGates
)

var gateNames = [numGates]string{"I", "X", "Y", "Z", "H", "S", "Sdg", "T", "Tdg"}

// String returns the gate mnemonic.
func (g Gate) String() string {
	if int(g) < len(gateNames) {
		return gateNames[g]
	}
	return fmt.Sprintf("Gate(%d)", uint8(g))
}

// IsT reports whether g consumes a magic state (T or T†).
func (g Gate) IsT() bool { return g == T || g == Tdg }

// IsCliffordNonPauli reports whether g ∈ {H, S, S†}.
func (g Gate) IsCliffordNonPauli() bool { return g == H || g == S || g == Sdg }

// M2 returns the numeric matrix of g.
func (g Gate) M2() qmat.M2 {
	switch g {
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
	}
	panic("gates: unknown gate")
}

// UMat returns the exact matrix of g over D[ω].
func (g Gate) UMat() ring.UMat {
	switch g {
	case I:
		return ring.UIdentity()
	case X:
		return ring.UGateX()
	case Y:
		return ring.UGateY()
	case Z:
		return ring.UGateZ()
	case H:
		return ring.UGateH()
	case S:
		return ring.UGateS()
	case Sdg:
		return ring.UGateSdg()
	case T:
		return ring.UGateT()
	case Tdg:
		return ring.UGateTdg()
	}
	panic("gates: unknown gate")
}

// RightMul sets *m = m·g exactly, as column operations on m (see
// ring.UMat.PhaseCol): equal to m.Mul(g.UMat()) for a reduced m, with no
// gate matrix built and no entry products taken.
func (g Gate) RightMul(m *ring.UMat) {
	switch g {
	case I:
	case X:
		m.SwapCols()
	case Y: // [[0, −i], [i, 0]]
		m.SwapCols()
		m.PhaseCol(0, 2)
		m.PhaseCol(1, 6)
	case Z:
		m.PhaseCol(1, 4)
	case H:
		m.HadamardCols()
	case S:
		m.PhaseCol(1, 2)
	case Sdg:
		m.PhaseCol(1, 6)
	case T:
		m.PhaseCol(1, 1)
	case Tdg:
		m.PhaseCol(1, 7)
	default:
		panic("gates: unknown gate")
	}
}

// Adjoint returns g†.
func (g Gate) Adjoint() Gate {
	switch g {
	case S:
		return Sdg
	case Sdg:
		return S
	case T:
		return Tdg
	case Tdg:
		return T
	default:
		return g
	}
}

// Sequence is a list of gates in matrix-product order: the product of a
// sequence [g1, g2, …, gn] is g1·g2·…·gn (gn acts first on kets).
type Sequence []Gate

// Matrix returns the numeric product of the sequence.
func (s Sequence) Matrix() qmat.M2 {
	m := qmat.I2()
	for _, g := range s {
		m = qmat.Mul(m, g.M2())
	}
	return m
}

// UMat returns the exact product of the sequence in int64 coefficients.
// Every gate but H only permutes and negates coefficients, and each H at
// most doubles the largest, so a sequence with at most 61 H gates is
// always exact. UMat checks the largest coefficient before each H and
// panics from 2^61 on, where the next H could leave int64 (a word of 260
// H·T^±1 pairs gets there); exact.SequenceBU multiplies any sequence.
func (s Sequence) UMat() ring.UMat {
	m := ring.UIdentity()
	for _, g := range s {
		if g == H && m.MaxAbsCoeff() >= 1<<61 {
			panic("gates: Sequence.UMat coefficients reached 2^61, past which H can overflow int64; use exact.SequenceBU")
		}
		g.RightMul(&m)
	}
	return m
}

// TCount returns the number of T/T† gates.
func (s Sequence) TCount() int {
	n := 0
	for _, g := range s {
		if g.IsT() {
			n++
		}
	}
	return n
}

// CliffordCount returns the number of non-Pauli Clifford gates (H, S, S†);
// Pauli gates are free in QEC (paper §4, Metrics).
func (s Sequence) CliffordCount() int {
	n := 0
	for _, g := range s {
		if g.IsCliffordNonPauli() {
			n++
		}
	}
	return n
}

// Adjoint returns the sequence implementing the inverse product.
func (s Sequence) Adjoint() Sequence {
	r := make(Sequence, 0, len(s))
	for i := len(s) - 1; i >= 0; i-- {
		r = append(r, s[i].Adjoint())
	}
	return r
}

// String renders the sequence as space-separated mnemonics.
func (s Sequence) String() string {
	if len(s) == 0 {
		return "I"
	}
	parts := make([]string, len(s))
	for i, g := range s {
		parts[i] = g.String()
	}
	return strings.Join(parts, " ")
}

// Parse parses a space-separated gate string (inverse of String).
func Parse(str string) (Sequence, error) {
	var s Sequence
	for _, tok := range strings.Fields(str) {
		found := false
		for g := I; g < numGates; g++ {
			if strings.EqualFold(tok, gateNames[g]) {
				if g != I {
					s = append(s, g)
				}
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("gates: unknown gate %q", tok)
		}
	}
	return s, nil
}
