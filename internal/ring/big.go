package ring

import (
	"fmt"
	"math/big"
)

// BSqrt2 is an element a + b√2 of Z[√2] with arbitrary-precision
// coefficients. The value-semantics methods below allocate fresh big.Ints
// for their results; hot paths use the in-place *To methods in inplace.go
// (of which these are thin wrappers).
type BSqrt2 struct {
	A, B *big.Int
}

// NewBSqrt2 returns a + b√2 from int64 coefficients.
func NewBSqrt2(a, b int64) BSqrt2 {
	return BSqrt2{big.NewInt(a), big.NewInt(b)}
}

// BSqrt2FromZSqrt2 lifts an int64-coefficient element.
func BSqrt2FromZSqrt2(x ZSqrt2) BSqrt2 { return NewBSqrt2(x.A, x.B) }

// Clone returns a deep copy.
func (x BSqrt2) Clone() BSqrt2 {
	return BSqrt2{new(big.Int).Set(x.A), new(big.Int).Set(x.B)}
}

// Add returns x + y.
func (x BSqrt2) Add(y BSqrt2) BSqrt2 {
	var z BSqrt2
	z.AddTo(x, y)
	return z
}

// Sub returns x − y.
func (x BSqrt2) Sub(y BSqrt2) BSqrt2 {
	var z BSqrt2
	z.SubTo(x, y)
	return z
}

// Neg returns −x.
func (x BSqrt2) Neg() BSqrt2 {
	var z BSqrt2
	z.NegTo(x)
	return z
}

// Mul returns x·y.
func (x BSqrt2) Mul(y BSqrt2) BSqrt2 {
	var z BSqrt2
	var s Scratch
	z.MulTo(x, y, &s)
	return z
}

// Bullet returns the conjugate a − b√2.
func (x BSqrt2) Bullet() BSqrt2 {
	var z BSqrt2
	z.BulletTo(x)
	return z
}

// NormZ returns x·x• = a² − 2b² as a big integer.
func (x BSqrt2) NormZ() *big.Int {
	n := new(big.Int)
	var s Scratch
	x.NormZTo(n, &s)
	return n
}

// IsZero reports whether x = 0.
func (x BSqrt2) IsZero() bool { return x.A.Sign() == 0 && x.B.Sign() == 0 }

// Equal reports x = y.
func (x BSqrt2) Equal(y BSqrt2) bool { return x.A.Cmp(y.A) == 0 && x.B.Cmp(y.B) == 0 }

// sqrt2Prec200 is the hoisted √2 at the 200-bit precision used by Float
// (computed once; read-only thereafter, safe for concurrent use).
var sqrt2Prec200 = func() *big.Float {
	s := big.NewFloat(2)
	s.SetPrec(200)
	s.Sqrt(s)
	return s
}()

// Float returns the numeric embedding with ~200-bit intermediate precision.
func (x BSqrt2) Float() float64 {
	f, _ := x.BigFloat(200).Float64()
	return f
}

// BigFloat returns the embedding a + b√2 at the given precision.
func (x BSqrt2) BigFloat(prec uint) *big.Float {
	s := sqrt2Prec200
	if prec != 200 {
		s = big.NewFloat(2)
		s.SetPrec(prec)
		s.Sqrt(s)
	}
	bf := new(big.Float).SetPrec(prec).SetInt(x.B)
	bf.Mul(bf, s)
	af := new(big.Float).SetPrec(prec).SetInt(x.A)
	return af.Add(af, bf)
}

// Sign returns the sign of the real embedding a + b√2 (exactly).
func (x BSqrt2) Sign() int {
	sa, sb := x.A.Sign(), x.B.Sign()
	switch {
	case sa == 0 && sb == 0:
		return 0
	case sa >= 0 && sb >= 0:
		return 1
	case sa <= 0 && sb <= 0:
		return -1
	}
	// Mixed signs: compare a² with 2b² (sign decided by the larger magnitude).
	a2 := new(big.Int).Mul(x.A, x.A)
	b2 := new(big.Int).Mul(x.B, x.B)
	b2.Lsh(b2, 1)
	cmp := a2.Cmp(b2)
	if cmp == 0 {
		return 0 // impossible for nonzero integers, but be safe
	}
	if cmp > 0 { // |a| dominates
		return sa
	}
	return sb
}

// DivExact returns x/y if y exactly divides x in Z[√2], with ok=false
// otherwise. x/y = x·y• / N(y).
func (x BSqrt2) DivExact(y BSqrt2) (BSqrt2, bool) {
	var z BSqrt2
	var s Scratch
	if !z.DivExactTo(x, y, &s) {
		return BSqrt2{}, false
	}
	return z, true
}

// PowLambda returns λ^j for any integer j (λ = 1+√2, λ⁻¹ = √2−1).
func PowLambda(j int) BSqrt2 {
	base := NewBSqrt2(1, 1)
	if j < 0 {
		base = NewBSqrt2(-1, 1)
		j = -j
	}
	var s Scratch
	r := NewBSqrt2(1, 0)
	for i := 0; i < j; i++ {
		r.MulTo(r, base, &s)
	}
	return r
}

// String renders x for debugging.
func (x BSqrt2) String() string { return fmt.Sprintf("(%v%+v√2)", x.A, x.B) }

// BOmega is an element a + bω + cω² + dω³ of Z[ω] with arbitrary-precision
// coefficients.
type BOmega struct {
	A, B, C, D *big.Int
}

// NewBOmega returns the element with the given int64 coefficients.
func NewBOmega(a, b, c, d int64) BOmega {
	return BOmega{big.NewInt(a), big.NewInt(b), big.NewInt(c), big.NewInt(d)}
}

// BOmegaFromZOmega lifts an int64-coefficient element.
func BOmegaFromZOmega(z ZOmega) BOmega { return NewBOmega(z.A, z.B, z.C, z.D) }

// BOmegaFromInt returns the rational integer n.
func BOmegaFromInt(n int64) BOmega { return NewBOmega(n, 0, 0, 0) }

// Clone returns a deep copy.
func (z BOmega) Clone() BOmega {
	return BOmega{new(big.Int).Set(z.A), new(big.Int).Set(z.B),
		new(big.Int).Set(z.C), new(big.Int).Set(z.D)}
}

// ToZOmega converts back to int64 coefficients; ok=false on overflow.
func (z BOmega) ToZOmega() (ZOmega, bool) {
	if !z.A.IsInt64() || !z.B.IsInt64() || !z.C.IsInt64() || !z.D.IsInt64() {
		return ZOmega{}, false
	}
	return ZOmega{z.A.Int64(), z.B.Int64(), z.C.Int64(), z.D.Int64()}, true
}

// IsZero reports whether z = 0.
func (z BOmega) IsZero() bool {
	return z.A.Sign() == 0 && z.B.Sign() == 0 && z.C.Sign() == 0 && z.D.Sign() == 0
}

// Equal reports z = w.
func (z BOmega) Equal(w BOmega) bool {
	return z.A.Cmp(w.A) == 0 && z.B.Cmp(w.B) == 0 && z.C.Cmp(w.C) == 0 && z.D.Cmp(w.D) == 0
}

// Add returns z + w.
func (z BOmega) Add(w BOmega) BOmega {
	var r BOmega
	r.AddTo(z, w)
	return r
}

// Sub returns z − w.
func (z BOmega) Sub(w BOmega) BOmega {
	var r BOmega
	r.SubTo(z, w)
	return r
}

// Neg returns −z.
func (z BOmega) Neg() BOmega {
	var r BOmega
	r.NegTo(z)
	return r
}

// MulOmega returns ω·z: (a,b,c,d) ↦ (−d,a,b,c).
func (z BOmega) MulOmega() BOmega {
	return BOmega{new(big.Int).Neg(z.D), new(big.Int).Set(z.A),
		new(big.Int).Set(z.B), new(big.Int).Set(z.C)}
}

// MulPhase returns ω^j·z.
func (z BOmega) MulPhase(j int) BOmega {
	j = ((j % 8) + 8) % 8
	r := z.Clone()
	for i := 0; i < j; i++ {
		r = r.MulOmega()
	}
	return r
}

// Mul returns z·w.
func (z BOmega) Mul(w BOmega) BOmega {
	var r BOmega
	var s Scratch
	r.MulTo(z, w, &s)
	return r
}

// Conj returns the complex conjugate: (a,b,c,d) ↦ (a,−d,−c,−b).
func (z BOmega) Conj() BOmega {
	var r BOmega
	r.ConjTo(z)
	return r
}

// Bullet returns the √2-conjugate: (a,b,c,d) ↦ (a,−b,c,−d).
func (z BOmega) Bullet() BOmega {
	var r BOmega
	r.BulletTo(z)
	return r
}

// Norm2 returns z·z̄ = |z|² as an element of Z[√2].
func (z BOmega) Norm2() BSqrt2 {
	var n BSqrt2
	var s Scratch
	z.Norm2To(&n, &s)
	return n
}

// NormZ returns the absolute rational norm N(z) = N_{Z[√2]/Z}(z·z̄) ≥ 0.
func (z BOmega) NormZ() *big.Int {
	n := new(big.Int)
	var s Scratch
	z.NormZTo(n, &s)
	return n
}

// DivisibleBySqrt2 reports whether z/√2 ∈ Z[ω].
func (z BOmega) DivisibleBySqrt2() bool {
	// a − c and b − d must both be even; parity of a difference is the
	// XOR of the operand parities, so no subtraction is needed.
	return z.A.Bit(0) == z.C.Bit(0) && z.B.Bit(0) == z.D.Bit(0)
}

// DivSqrt2 returns z/√2 (caller ensures divisibility).
func (z BOmega) DivSqrt2() BOmega {
	var r BOmega
	var s Scratch
	r.DivSqrt2To(z, &s)
	return r
}

// MulSqrt2 returns z·√2.
func (z BOmega) MulSqrt2() BOmega {
	var r BOmega
	var s Scratch
	r.MulSqrt2To(z, &s)
	return r
}

// Complex returns the float64 embedding (valid while coefficients fit in
// ~2^52; gridsynth at ε ≥ 1e-9 stays far below this).
func (z BOmega) Complex() complex128 {
	a, _ := new(big.Float).SetInt(z.A).Float64()
	b, _ := new(big.Float).SetInt(z.B).Float64()
	c, _ := new(big.Float).SetInt(z.C).Float64()
	d, _ := new(big.Float).SetInt(z.D).Float64()
	return complex(a+(b-d)/Sqrt2, c+(b+d)/Sqrt2)
}

// String renders z for debugging.
func (z BOmega) String() string {
	return fmt.Sprintf("(%v%+vω%+vω²%+vω³)", z.A, z.B, z.C, z.D)
}

// EuclidState carries the reusable temporaries of Euclidean division and
// gcd in Z[ω]. One state serves a whole search; the zero value is ready.
// Not safe for concurrent use.
type EuclidState struct {
	s          Scratch
	a, b, q, r BOmega // owned rotation slots for the gcd loop
	t, num     BOmega
	ww, wb     BSqrt2
	n, e1, e2  big.Int
	nb, nr     big.Int
}

// nearestTo sets dst to the integer nearest x/n (|n| > 0), using the
// state's temporaries.
func (st *EuclidState) nearestTo(dst, x *big.Int) {
	RoundQuoTo(dst, x, &st.n, &st.e1, &st.e2)
}

// RoundQuoTo sets dst to the integer nearest x/n (n ≠ 0), drawing its two
// temporaries from the caller (the scratch-threading idiom). It is the
// single implementation of nearest-integer division shared by the Z[ω]
// Euclid state here and the Z[√2] Euclid loop in the Diophantine solver.
func RoundQuoTo(dst, x, n, t1, t2 *big.Int) {
	dst.Quo(x, n)
	// Truncated quotient is within 1 of the nearest integer.
	t1.Mul(dst, n)
	t1.Sub(x, t1)
	t1.Abs(t1) // |x − q0·n|
	bestDelta := int64(0)
	for _, delta := range [2]int64{-1, 1} {
		t2.SetInt64(delta)
		t2.Add(dst, t2)
		t2.Mul(t2, n)
		t2.Sub(x, t2)
		t2.Abs(t2)
		if t2.Cmp(t1) < 0 {
			t1.Set(t2)
			bestDelta = delta
		}
	}
	if bestDelta != 0 {
		t2.SetInt64(bestDelta)
		dst.Add(dst, t2)
	}
}

// euclidTo computes q, r with z = q·w + r into the state's q/r slots
// (mirroring EuclideanDiv, including the rare rescue scan).
func (st *EuclidState) euclidTo(z, w BOmega) {
	s := &st.s
	w.Norm2To(&st.ww, s) // w·w̄ ∈ Z[√2]
	st.ww.NormZTo(&st.n, s)
	st.t.ConjTo(w)
	st.num.MulTo(z, st.t, s) // z·w̄
	st.wb.BulletTo(st.ww)
	st.t.SetBSqrt2(st.wb)
	st.num.MulTo(st.num, st.t, s)
	st.q.ensure()
	st.nearestTo(st.q.A, st.num.A)
	st.nearestTo(st.q.B, st.num.B)
	st.nearestTo(st.q.C, st.num.C)
	st.nearestTo(st.q.D, st.num.D)
	st.t.MulTo(st.q, w, s)
	st.r.SubTo(z, st.t)
	if st.r.IsZero() {
		return
	}
	st.r.NormZTo(&st.nr, s)
	w.NormZTo(&st.nb, s)
	if st.nr.Cmp(&st.nb) < 0 {
		return
	}
	// Rescue: scan the 3^4 neighborhood of q for a norm-decreasing
	// remainder (rare; value-semantics ops are fine here).
	bestQ, bestR := st.q.Clone(), st.r.Clone()
	bestN := new(big.Int).Set(&st.nr)
	for da := int64(-1); da <= 1; da++ {
		for db := int64(-1); db <= 1; db++ {
			for dc := int64(-1); dc <= 1; dc++ {
				for dd := int64(-1); dd <= 1; dd++ {
					cand := st.q.Add(NewBOmega(da, db, dc, dd))
					cr := z.Sub(cand.Mul(w))
					if cn := cr.NormZ(); cn.Cmp(bestN) < 0 {
						bestQ, bestR, bestN = cand, cr, cn
					}
				}
			}
		}
	}
	st.q.Set(bestQ)
	st.r.Set(bestR)
}

// GCD computes a greatest common divisor of z and w (as ring.GCD) reusing
// the state's storage. The result is freshly allocated and owned by the
// caller.
func (st *EuclidState) GCD(z, w BOmega) BOmega {
	st.a.Set(z)
	st.b.Set(w)
	s := &st.s
	for !st.b.IsZero() {
		st.euclidTo(st.a, st.b)
		if !st.r.IsZero() {
			st.r.NormZTo(&st.nr, s)
			st.b.NormZTo(&st.nb, s)
			if st.nr.Cmp(&st.nb) >= 0 {
				return st.b.Clone()
			}
		}
		st.a, st.b, st.r = st.b, st.r, st.a
	}
	return st.a.Clone()
}

// EuclideanDiv returns q, r with z = q·w + r, choosing q near z/w in Q[ω]
// by coefficient-wise rounding. Coefficient rounding alone does not always
// give N(r) < N(w) in Z[ω], so neighbors of the rounded quotient are also
// tried and the smallest-norm remainder wins.
func EuclideanDiv(z, w BOmega) (q, r BOmega) {
	var st EuclidState
	st.euclidTo(z, w)
	return st.q.Clone(), st.r.Clone()
}

// GCD returns a greatest common divisor of z and w in Z[ω] (unique up to
// units), via the Euclidean algorithm. If division ever fails to shrink the
// norm (possible only through a rounding pathology), the current candidate
// is returned; callers that need certainty verify divisibility afterwards.
func GCD(z, w BOmega) BOmega {
	var st EuclidState
	return st.GCD(z, w)
}

// DivExactOmega returns z/w when w exactly divides z in Z[ω].
func DivExactOmega(z, w BOmega) (BOmega, bool) {
	q, r := EuclideanDiv(z, w)
	if !r.IsZero() {
		return BOmega{}, false
	}
	return q, true
}
