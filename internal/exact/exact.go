// Package exact implements exact synthesis of unitaries over D[ω] =
// Z[ω, 1/√2] into Clifford+T gate sequences (Kliuchnikov–Maslov–Mosca /
// Giles–Selinger style): peel T^j·H factors from the left to reduce the
// least denominator exponent, then finish with the step-0 enumeration
// table. The output sequence reproduces the input matrix exactly up to a
// global phase ω^m.
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

// NewBUMat builds a reduced matrix from entries and denominator exponent.
func NewBUMat(e00, e01, e10, e11 ring.BOmega, k int) BUMat {
	m := BUMat{E: [2][2]ring.BOmega{{e00, e01}, {e10, e11}}, K: k}
	m.reduce()
	return m
}

// FromColumns builds V = (1/√2^k)·[[u, −t†·ω^g], [t, u†·ω^g]], the
// gridsynth unitary with det ω^g; u·u† + t·t† = 2^k makes it unitary.
func FromColumns(u, t ring.BOmega, k, g int) BUMat {
	return NewBUMat(u, t.Conj().Neg().MulPhase(g), t, u.Conj().MulPhase(g), k)
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

// reducers[j] = H·T^{−j}, the left-multipliers used to peel a T^j·H prefix.
var reducers = func() [4]BUMat {
	var r [4]BUMat
	tdg := gateBU(gates.Tdg)
	m := gateBU(gates.H)
	for j := 0; j < 4; j++ {
		r[j] = m
		m = m.Mul(tdg) // H·T^{−j} → H·T^{−(j+1)}
	}
	return r
}()

// reducersU mirrors reducers with int64 coefficients for the fast path.
// Every reducer coefficient is in {−1, 0, 1} (checked at init), which the
// overflow-safety argument in mulReducer relies on.
var reducersU = func() [4]ring.UMat {
	var r [4]ring.UMat
	for j := range reducers {
		u, ok := reducers[j].ToUMat()
		if !ok {
			panic("exact: reducer does not fit int64")
		}
		for i := 0; i < 2; i++ {
			for jj := 0; jj < 2; jj++ {
				e := u.E[i][jj]
				for _, c := range [4]int64{e.A, e.B, e.C, e.D} {
					if c < -1 || c > 1 {
						panic("exact: reducer coefficient outside {-1,0,1}")
					}
				}
			}
		}
		r[j] = u
	}
	return r
}()

// uncheckedSafeLimit bounds |coefficient| of w such that a reducer·w
// product cannot overflow int64 even through the reduce step: reducer
// coefficients are in {−1,0,1}, so each product entry coefficient is a sum
// of ≤ 8 terms each ≤ 2^58, i.e. ≤ 2^61, and the DivSqrt2 intermediates of
// reduce stay ≤ 2^62 < MaxInt64.
const uncheckedSafeLimit = 1 << 58

// unitaryCheckLimit bounds |coefficient| of u such that u·u† cannot
// overflow int64: each product entry coefficient is a sum of 8 terms each
// below 2^58, so below 2^61, and the reduce intermediates stay below 2^62.
const unitaryCheckLimit = 1 << 29

// mulReducer returns reducersU[j]·w in int64 arithmetic, or ok=false
// when w's coefficients are too large for that product to be proven free
// of overflow; the caller then continues in big arithmetic.
func mulReducer(j int, w ring.UMat) (ring.UMat, bool) {
	if w.MaxAbsCoeff() >= uncheckedSafeLimit {
		return ring.UMat{}, false
	}
	return reducersU[j].Mul(w), true
}

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

// fastPathEnabled gates the int64 small-coefficient path. It exists so
// the seed-equality property tests can force the big.Int reference path
// and prove both produce bit-identical sequences; production code never
// turns it off.
var fastPathEnabled = true

// SetFastPath toggles the int64 fast path (for tests and benchmarks);
// it returns the previous setting.
func SetFastPath(enabled bool) bool {
	prev := fastPathEnabled
	fastPathEnabled = enabled
	return prev
}

// Synthesize decomposes the exact unitary m into a Clifford+T sequence
// whose product equals m up to a global phase ω^g. tab supplies minimal
// sequences for the residual low-denominator operators (any table with
// MaxT ≥ 4 works; larger tables trim a few gates).
//
// When every coefficient of m fits in int64 (always, for gridsynth at
// practical ε), the peel loop runs in machine arithmetic, each product
// made only once a coefficient bound proves it cannot overflow: the
// unitarity check below unitaryCheckLimit (in big arithmetic above it),
// and each reducer product below uncheckedSafeLimit, past which the
// residual moves to the big.Int loop mid-stream. Both paths perform the
// identical exact arithmetic, so the emitted sequence is the same gate
// for gate.
func Synthesize(m BUMat, tab *gates.Table) (gates.Sequence, error) {
	u, small := m.ToUMat()
	small = small && fastPathEnabled
	if small && u.MaxAbsCoeff() < unitaryCheckLimit {
		if !isUnitarySmall(u) {
			return nil, ErrNotUnitary
		}
	} else if !isUnitary(m) {
		return nil, ErrNotUnitary
	}
	if small {
		return synthesizeSmall(u, tab)
	}
	return synthesizeBig(m, tab, nil, 0)
}

// synthesizeSmall is the int64 peel loop. Once a residual's coefficients
// reach uncheckedSafeLimit it promotes that residual to the big.Int loop,
// preserving the accumulated prefix and iteration count, so the result is
// identical to an all-big run.
func synthesizeSmall(u ring.UMat, tab *gates.Table) (gates.Sequence, error) {
	var seq gates.Sequence
	w := u
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
			cand, ok := mulReducer(j, w)
			if !ok {
				return synthesizeBig(fromUMat(w), tab, seq, iter)
			}
			if cand.K < w.K {
				seq = append(seq, prefixFor(j)...)
				w = cand
				reducedAny = true
			}
		}
		if !reducedAny {
			// Same K-neutral-then-reducing pair scan as the big loop.
		pairs:
			for j1 := 0; j1 < 4; j1++ {
				mid, ok := mulReducer(j1, w)
				if !ok {
					return synthesizeBig(fromUMat(w), tab, seq, iter)
				}
				if mid.K > w.K {
					continue
				}
				for j2 := 0; j2 < 4; j2++ {
					cand, ok := mulReducer(j2, mid)
					if !ok {
						return synthesizeBig(fromUMat(w), tab, seq, iter)
					}
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

// synthesizeBig is the arbitrary-precision peel loop (reference path, and
// the continuation target once the fast path's coefficient bound is
// reached).
func synthesizeBig(m BUMat, tab *gates.Table, seq gates.Sequence, startIter int) (gates.Sequence, error) {
	w := m
	for iter := startIter; ; iter++ {
		if iter > 100000 {
			return nil, ErrStuck
		}
		// Handoff: if the residual fits the enumeration, finish optimally.
		if w.K <= 4 {
			if u, ok := w.ToUMat(); ok {
				if e, found := tab.Find(u); found {
					return append(seq, e.Sequence()...), nil
				}
			}
		}
		if w.K == 0 {
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

// fromUMat lifts an int64 matrix into the big representation.
func fromUMat(u ring.UMat) BUMat {
	var b BUMat
	b.K = u.K
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			b.E[i][j] = ring.BOmegaFromZOmega(u.E[i][j])
		}
	}
	return b
}

// isUnitarySmall checks u·u† = I in int64 arithmetic; the caller ensures
// every coefficient of u is below unitaryCheckLimit.
func isUnitarySmall(u ring.UMat) bool {
	return u.Mul(u.Dagger()) == ring.UIdentity()
}

// isUnitary checks m·m† = I exactly.
func isUnitary(m BUMat) bool {
	d := BUMat{K: m.K}
	d.E[0][0] = m.E[0][0].Conj()
	d.E[0][1] = m.E[1][0].Conj()
	d.E[1][0] = m.E[0][1].Conj()
	d.E[1][1] = m.E[1][1].Conj()
	p := m.Mul(d)
	if p.K != 0 {
		return false
	}
	one := ring.BOmegaFromInt(1)
	return p.E[0][0].Equal(one) && p.E[1][1].Equal(one) &&
		p.E[0][1].IsZero() && p.E[1][0].IsZero()
}
