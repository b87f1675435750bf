// Package exact implements exact synthesis of unitaries over D[ω] =
// Z[ω, 1/√2] into Clifford+T gate sequences (Kliuchnikov–Maslov–Mosca /
// Giles–Selinger style): peel T^j·H factors from the left to reduce the
// least denominator exponent, then finish with the step-0 enumeration
// table. The output sequence reproduces the input matrix exactly up to a
// global phase ω^m.
//
// Synthesize works in int64 on matrices whose coefficients lie below
// 2^CoeffBits, the bound under which neither its unitarity check nor its
// peel loop can overflow. BUMat, with arbitrary-precision coefficients,
// is the exact multiply-out reference (SequenceBU) that results are
// checked against.
package exact

import (
	"errors"
	"fmt"

	"repro/internal/gates"
	"repro/internal/ring"
)

// BUMat is an exact 2x2 matrix (1/√2^K)·[entries ∈ Z[ω]] with
// arbitrary-precision coefficients, kept in reduced form.
type BUMat struct {
	E [2][2]ring.BOmega
	K int
}

func (m *BUMat) reduce() {
	for m.K > 0 &&
		m.E[0][0].DivisibleBySqrt2() && m.E[0][1].DivisibleBySqrt2() &&
		m.E[1][0].DivisibleBySqrt2() && m.E[1][1].DivisibleBySqrt2() {
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				m.E[i][j] = m.E[i][j].DivSqrt2()
			}
		}
		m.K--
	}
}

// Mul returns a·b, reduced.
func (a BUMat) Mul(b BUMat) BUMat {
	var r BUMat
	r.K = a.K + b.K
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			r.E[i][j] = a.E[i][0].Mul(b.E[0][j]).Add(a.E[i][1].Mul(b.E[1][j]))
		}
	}
	r.reduce()
	return r
}

// ToUMat converts to the int64 representation when coefficients fit.
func (a BUMat) ToUMat() (ring.UMat, bool) {
	var u ring.UMat
	u.K = a.K
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			z, ok := a.E[i][j].ToZOmega()
			if !ok {
				return ring.UMat{}, false
			}
			u.E[i][j] = z
		}
	}
	return u, true
}

// EqualUpToPhase reports a = ω^j·b for some j.
func (a BUMat) EqualUpToPhase(b BUMat) bool {
	if a.K != b.K {
		return false
	}
	for j := 0; j < 8; j++ {
		match := true
		for r := 0; r < 2 && match; r++ {
			for c := 0; c < 2 && match; c++ {
				if !a.E[r][c].Equal(b.E[r][c].MulPhase(j)) {
					match = false
				}
			}
		}
		if match {
			return true
		}
	}
	return false
}

// gateBU returns the exact big matrix of a discrete gate.
func gateBU(g gates.Gate) BUMat {
	u := g.UMat()
	var b BUMat
	b.K = u.K
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			b.E[i][j] = ring.BOmegaFromZOmega(u.E[i][j])
		}
	}
	return b
}

// SequenceBU returns the exact big product of a gate sequence.
func SequenceBU(seq gates.Sequence) BUMat {
	m := gateBU(gates.I)
	for _, g := range seq {
		m = m.Mul(gateBU(g))
	}
	return m
}

// CoeffBits bounds the matrices Synthesize accepts: every coefficient
// below 2^CoeffBits. Under this bound no int64 value Synthesize forms can
// overflow:
//   - the unitarity check: each coefficient of an entry of m·m† sums 8
//     products below 2^58, so it stays below 2^61;
//   - the peel loop: an entry e of a unitary at exponent K has
//     |e|² + |e•|² = 2·Σ coefficients² ≤ 2·2^K, so every coefficient is
//     at most 2^(K/2). Each column has an entry with |e|² ≥ 2^(K−1), and
//     |e|² < (4·2^29)² when its coefficients lie below 2^29, so K < 63.
//     Every residual the loop forms is unitary at exponent at most K+1
//     before it is reduced, so its coefficients stay below 2^31.5 and the
//     sums of at most 8 of them that form the next one below 2^35.
const CoeffBits = 29

// ErrCoeffBound is returned for a matrix with a coefficient of
// 2^CoeffBits or more.
var ErrCoeffBound = fmt.Errorf("exact: matrix coefficient at or past 2^%d", CoeffBits)

// FromColumns builds V = (1/√2^k)·[[u, −t†·ω^g], [t, u†·ω^g]], the
// gridsynth unitary with det ω^g, reduced; u·u† + t·t† = 2^k makes it
// unitary.
func FromColumns(u, t ring.ZOmega, k, g int) ring.UMat {
	m := ring.UMat{E: [2][2]ring.ZOmega{
		{u, t.Conj().Neg().MulOmegaPow(g)},
		{t, u.Conj().MulOmegaPow(g)},
	}, K: k}
	m.Reduce()
	return m
}

// reducers[j] = H·T^{−j}, the left-multipliers used to peel a T^j·H
// prefix. Every coefficient is in {−1, 0, 1}.
var reducers = func() [4]ring.UMat {
	var r [4]ring.UMat
	m, tdg := gates.H.UMat(), gates.Tdg.UMat()
	for j := range r {
		r[j] = m
		m = m.Mul(tdg) // H·T^{−j} → H·T^{−(j+1)}
	}
	return r
}()

// prefixFor returns the emitted gates for reducer j (the peeled factor
// T^j·H in matrix-product order).
func prefixFor(j int) gates.Sequence {
	switch j {
	case 0:
		return gates.Sequence{gates.H}
	case 1:
		return gates.Sequence{gates.T, gates.H}
	case 2:
		return gates.Sequence{gates.S, gates.H}
	default:
		return gates.Sequence{gates.S, gates.T, gates.H}
	}
}

// ErrNotUnitary is returned when the input is not exactly unitary over D[ω].
var ErrNotUnitary = errors.New("exact: matrix is not unitary over D[ω]")

// ErrStuck is returned if no T^j·H peel reduces the denominator exponent
// (cannot happen for genuine unitaries; kept as a loud failure mode).
var ErrStuck = errors.New("exact: no reduction step applies")

// Synthesize decomposes the exact unitary m, which must be reduced and
// have every coefficient below 2^CoeffBits (ErrCoeffBound otherwise), into
// a Clifford+T sequence whose product equals m up to a global phase ω^g.
// tab supplies minimal sequences for the residual low-denominator
// operators (any table with MaxT ≥ 4 works; larger tables trim a few
// gates).
func Synthesize(m ring.UMat, tab *gates.Table) (gates.Sequence, error) {
	if m.MaxAbsCoeff() >= 1<<CoeffBits {
		return nil, ErrCoeffBound
	}
	if m.Mul(m.Dagger()) != ring.UIdentity() {
		return nil, ErrNotUnitary
	}
	var seq gates.Sequence
	w := m
	for iter := 0; ; iter++ {
		if iter > 100000 {
			return nil, ErrStuck
		}
		// Handoff: if the residual fits the enumeration, finish optimally.
		if w.K <= 4 {
			if e, found := tab.Find(w); found {
				return append(seq, e.Sequence()...), nil
			}
		}
		if w.K == 0 {
			// Every K=0 unitary over Z[ω] is a phase-monomial (diag or
			// antidiag with ω^j entries) and lives in any table with
			// MaxT ≥ 1; reaching here means the table was too small.
			return nil, fmt.Errorf("exact: K=0 residual not in table (MaxT=%d)", tab.MaxT)
		}
		reducedAny := false
		for j := 0; j < 4 && !reducedAny; j++ {
			cand := reducers[j].Mul(w)
			if cand.K < w.K {
				seq = append(seq, prefixFor(j)...)
				w = cand
				reducedAny = true
			}
		}
		if !reducedAny {
			// No single peel reduces K: a K-neutral step followed by a
			// reducing one is required (this is why exact synthesis costs
			// ~2 T gates per unit of denominator exponent).
		pairs:
			for j1 := 0; j1 < 4; j1++ {
				mid := reducers[j1].Mul(w)
				if mid.K > w.K {
					continue
				}
				for j2 := 0; j2 < 4; j2++ {
					cand := reducers[j2].Mul(mid)
					if cand.K < w.K {
						seq = append(seq, prefixFor(j1)...)
						seq = append(seq, prefixFor(j2)...)
						w = cand
						reducedAny = true
						break pairs
					}
				}
			}
		}
		if !reducedAny {
			return nil, ErrStuck
		}
	}
}
