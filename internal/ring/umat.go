package ring

import (
	"fmt"

	"repro/internal/qmat"
)

// UMat is an exact Clifford+T matrix (1/√2^K)·[[E00, E01], [E10, E11]] with
// entries in Z[ω]. The representation is kept reduced: K is the least
// denominator exponent (sde), i.e. either K = 0 or not all entries are
// divisible by √2.
type UMat struct {
	E [2][2]ZOmega
	K int
}

// UIdentity returns the exact identity matrix.
func UIdentity() UMat {
	return UMat{E: [2][2]ZOmega{{ZOmegaFromInt(1), {}}, {{}, ZOmegaFromInt(1)}}}
}

// Exact gate matrices over D[ω].
func gateDiag(d ZOmega) UMat {
	return UMat{E: [2][2]ZOmega{{ZOmegaFromInt(1), {}}, {{}, d}}}
}

// UGateT returns the exact T gate diag(1, ω).
func UGateT() UMat { return gateDiag(OmegaUnit(1)) }

// UGateTdg returns the exact T† gate diag(1, ω⁷).
func UGateTdg() UMat { return gateDiag(OmegaUnit(7)) }

// UGateS returns the exact S gate diag(1, i).
func UGateS() UMat { return gateDiag(OmegaUnit(2)) }

// UGateSdg returns the exact S† gate diag(1, −i).
func UGateSdg() UMat { return gateDiag(OmegaUnit(6)) }

// UGateZ returns the exact Z gate.
func UGateZ() UMat { return gateDiag(OmegaUnit(4)) }

// UGateX returns the exact X gate.
func UGateX() UMat {
	return UMat{E: [2][2]ZOmega{{{}, ZOmegaFromInt(1)}, {ZOmegaFromInt(1), {}}}}
}

// UGateY returns the exact Y gate [[0, −i], [i, 0]].
func UGateY() UMat {
	return UMat{E: [2][2]ZOmega{{{}, OmegaUnit(6)}, {OmegaUnit(2), {}}}}
}

// UGateH returns the exact Hadamard gate (1/√2)[[1, 1], [1, −1]].
func UGateH() UMat {
	one := ZOmegaFromInt(1)
	return UMat{E: [2][2]ZOmega{{one, one}, {one, one.Neg()}}, K: 1}
}

// Reduce divides out common √2 factors so K is minimal.
func (m *UMat) Reduce() {
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

// Mul returns m·n, reduced.
func (m UMat) Mul(n UMat) UMat {
	var r UMat
	r.K = m.K + n.K
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			r.E[i][j] = m.E[i][0].Mul(n.E[0][j]).Add(m.E[i][1].Mul(n.E[1][j]))
		}
	}
	r.Reduce()
	return r
}

// Right-multiplication by a Clifford+T generator, in place. Every gate of
// the alphabet is a column operation: m·diag(1, ω^k) scales column 1,
// m·X swaps the columns, and m·H replaces them by their sum and
// difference over √2. On a reduced m (every UMat this package builds is
// reduced) each leaves m reduced and equal to the generic Mul by the
// gate's matrix, without forming that matrix or the four entry products.

// PhaseCol multiplies column j of m by ω^k.
func (m *UMat) PhaseCol(j, k int) {
	m.E[0][j] = m.E[0][j].MulOmegaPow(k)
	m.E[1][j] = m.E[1][j].MulOmegaPow(k)
}

// SwapCols exchanges the columns of m: m ← m·X.
func (m *UMat) SwapCols() {
	m.E[0][0], m.E[0][1] = m.E[0][1], m.E[0][0]
	m.E[1][0], m.E[1][1] = m.E[1][1], m.E[1][0]
}

// HadamardCols sets m ← m·H: columns (c0, c1) become (c0+c1, c0−c1) over
// one more factor of √2, then common √2 factors are divided out.
func (m *UMat) HadamardCols() {
	for i := 0; i < 2; i++ {
		a, b := m.E[i][0], m.E[i][1]
		m.E[i][0], m.E[i][1] = a.Add(b), a.Sub(b)
	}
	m.K++
	m.Reduce()
}

// MaxAbsCoeff returns the largest coefficient magnitude of m (saturating
// at MaxInt64 for MinInt64 coefficients).
func (m UMat) MaxAbsCoeff() int64 {
	mx := int64(0)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			e := m.E[i][j]
			for _, c := range [4]int64{e.A, e.B, e.C, e.D} {
				if c == -1<<63 {
					return 1<<63 - 1
				}
				if c < 0 {
					c = -c
				}
				if c > mx {
					mx = c
				}
			}
		}
	}
	return mx
}

// MulPhase returns ω^j · m.
func (m UMat) MulPhase(j int) UMat {
	m.PhaseCol(0, j)
	m.PhaseCol(1, j)
	return m
}

// Dagger returns the conjugate transpose m†.
func (m UMat) Dagger() UMat {
	var r UMat
	r.K = m.K
	r.E[0][0] = m.E[0][0].Conj()
	r.E[0][1] = m.E[1][0].Conj()
	r.E[1][0] = m.E[0][1].Conj()
	r.E[1][1] = m.E[1][1].Conj()
	return r
}

// Complex returns the numeric embedding of m.
func (m UMat) Complex() qmat.M2 {
	s := complex(math2PowHalf(-m.K), 0)
	var r qmat.M2
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			r[i][j] = s * m.E[i][j].Complex()
		}
	}
	return r
}

// math2PowHalf returns √2^e for possibly negative e.
func math2PowHalf(e int) float64 {
	v := 1.0
	if e >= 0 {
		for i := 0; i < e; i++ {
			v *= Sqrt2
		}
	} else {
		for i := 0; i < -e; i++ {
			v /= Sqrt2
		}
	}
	return v
}

// Key is a comparable canonical fingerprint of a UMat up to the 8 global
// phases ω^j. Two exact matrices have equal keys iff they are equal up to a
// power of ω.
type Key struct {
	K int8
	C [16]int32
}

// coeffs serializes the matrix entries into a fixed-order coefficient array.
func (m UMat) coeffs() [16]int32 {
	var c [16]int32
	idx := 0
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			z := m.E[i][j]
			c[idx] = int32(z.A)
			c[idx+1] = int32(z.B)
			c[idx+2] = int32(z.C)
			c[idx+3] = int32(z.D)
			idx += 4
		}
	}
	return c
}

func lessCoeffs(a, b [16]int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// CanonicalKey returns the canonical fingerprint: the lexicographically
// smallest coefficient serialization over the 8 phase rotations ω^j·m.
// The matrix must already be reduced (it always is when built via Mul).
func (m UMat) CanonicalKey() Key {
	best := m.coeffs()
	cur := best
	for j := 1; j < 8; j++ {
		// ω·(a, b, c, d) = (−d, a, b, c), entry by entry; int32 truncation
		// commutes with negation, so this is the serialization of ω^j·m.
		for e := 0; e < len(cur); e += 4 {
			cur[e], cur[e+1], cur[e+2], cur[e+3] = -cur[e+3], cur[e], cur[e+1], cur[e+2]
		}
		if lessCoeffs(cur, best) {
			best = cur
		}
	}
	return Key{K: int8(m.K), C: best}
}

// Equal reports exact equality (including phase).
func (m UMat) Equal(n UMat) bool { return m == n }

// EqualUpToPhase reports whether m = ω^j·n for some j.
func (m UMat) EqualUpToPhase(n UMat) bool {
	if m.K != n.K {
		return false
	}
	cur := n
	for j := 0; j < 8; j++ {
		if m == cur {
			return true
		}
		cur = cur.MulPhase(1)
	}
	return false
}

// String renders m for debugging.
func (m UMat) String() string {
	return fmt.Sprintf("(1/√2^%d)[[%v,%v],[%v,%v]]", m.K, m.E[0][0], m.E[0][1], m.E[1][0], m.E[1][1])
}
