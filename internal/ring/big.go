package ring

import (
	"fmt"
	"math/big"
)

// BSqrt2 is an element a + b√2 of Z[√2] with arbitrary-precision
// coefficients. The value methods below never modify their operands and
// return fresh big.Ints; gridsynth's candidate loop uses the in-place
// forms in inplace.go.
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
	return BSqrt2{new(big.Int).Add(x.A, y.A), new(big.Int).Add(x.B, y.B)}
}

// Sub returns x − y.
func (x BSqrt2) Sub(y BSqrt2) BSqrt2 {
	var z BSqrt2
	z.SubTo(x, y)
	return z
}

// Neg returns −x.
func (x BSqrt2) Neg() BSqrt2 {
	return BSqrt2{new(big.Int).Neg(x.A), new(big.Int).Neg(x.B)}
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
	n := new(big.Int).Mul(x.A, x.A)
	t := new(big.Int).Mul(x.B, x.B)
	return n.Sub(n, t.Lsh(t, 1))
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
	n := y.NormZ()
	if n.Sign() == 0 {
		return BSqrt2{}, false
	}
	p := x.Mul(y.Bullet())
	r := new(big.Int)
	if p.A.QuoRem(p.A, n, r); r.Sign() != 0 {
		return BSqrt2{}, false
	}
	if p.B.QuoRem(p.B, n, r); r.Sign() != 0 {
		return BSqrt2{}, false
	}
	return p, true
}

// PowLambda returns λ^j for any integer j (λ = 1+√2, λ⁻¹ = √2−1).
func PowLambda(j int) BSqrt2 {
	base := NewBSqrt2(1, 1)
	if j < 0 {
		base = NewBSqrt2(-1, 1)
		j = -j
	}
	r := NewBSqrt2(1, 0)
	for i := 0; i < j; i++ {
		r = r.Mul(base)
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

// BOmegaFromBSqrt2 embeds x = a + b√2 into Z[ω] (√2 = ω − ω³).
func BOmegaFromBSqrt2(x BSqrt2) BOmega {
	return BOmega{new(big.Int).Set(x.A), new(big.Int).Set(x.B), new(big.Int), new(big.Int).Neg(x.B)}
}

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
	return BOmega{new(big.Int).Add(z.A, w.A), new(big.Int).Add(z.B, w.B),
		new(big.Int).Add(z.C, w.C), new(big.Int).Add(z.D, w.D)}
}

// Sub returns z − w.
func (z BOmega) Sub(w BOmega) BOmega {
	return BOmega{new(big.Int).Sub(z.A, w.A), new(big.Int).Sub(z.B, w.B),
		new(big.Int).Sub(z.C, w.C), new(big.Int).Sub(z.D, w.D)}
}

// Neg returns −z.
func (z BOmega) Neg() BOmega {
	return BOmega{new(big.Int).Neg(z.A), new(big.Int).Neg(z.B),
		new(big.Int).Neg(z.C), new(big.Int).Neg(z.D)}
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

// Mul returns z·w (polynomial multiplication modulo ω⁴ = −1).
func (z BOmega) Mul(w BOmega) BOmega {
	t := new(big.Int)
	a := new(big.Int).Mul(z.A, w.A)
	a.Sub(a, t.Mul(z.B, w.D))
	a.Sub(a, t.Mul(z.C, w.C))
	a.Sub(a, t.Mul(z.D, w.B))
	b := new(big.Int).Mul(z.A, w.B)
	b.Add(b, t.Mul(z.B, w.A))
	b.Sub(b, t.Mul(z.C, w.D))
	b.Sub(b, t.Mul(z.D, w.C))
	c := new(big.Int).Mul(z.A, w.C)
	c.Add(c, t.Mul(z.B, w.B))
	c.Add(c, t.Mul(z.C, w.A))
	c.Sub(c, t.Mul(z.D, w.D))
	d := new(big.Int).Mul(z.A, w.D)
	d.Add(d, t.Mul(z.B, w.C))
	d.Add(d, t.Mul(z.C, w.B))
	d.Add(d, t.Mul(z.D, w.A))
	return BOmega{a, b, c, d}
}

// Conj returns the complex conjugate: (a,b,c,d) ↦ (a,−d,−c,−b).
func (z BOmega) Conj() BOmega {
	return BOmega{new(big.Int).Set(z.A), new(big.Int).Neg(z.D),
		new(big.Int).Neg(z.C), new(big.Int).Neg(z.B)}
}

// Bullet returns the √2-conjugate: (a,b,c,d) ↦ (a,−b,c,−d).
func (z BOmega) Bullet() BOmega {
	return BOmega{new(big.Int).Set(z.A), new(big.Int).Neg(z.B),
		new(big.Int).Set(z.C), new(big.Int).Neg(z.D)}
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
	n := z.Norm2().NormZ()
	return n.Abs(n)
}

// DivisibleBySqrt2 reports whether z/√2 ∈ Z[ω].
func (z BOmega) DivisibleBySqrt2() bool {
	// a − c and b − d must both be even; parity of a difference is the
	// XOR of the operand parities, so no subtraction is needed.
	return z.A.Bit(0) == z.C.Bit(0) && z.B.Bit(0) == z.D.Bit(0)
}

// DivSqrt2 returns z/√2 (caller ensures divisibility): with √2 = ω − ω³,
// z/√2 = ((b−d)/2, (a+c)/2, (b+d)/2, (c−a)/2).
func (z BOmega) DivSqrt2() BOmega {
	a := new(big.Int).Sub(z.B, z.D)
	b := new(big.Int).Add(z.A, z.C)
	c := new(big.Int).Add(z.B, z.D)
	d := new(big.Int).Sub(z.C, z.A)
	return BOmega{a.Rsh(a, 1), b.Rsh(b, 1), c.Rsh(c, 1), d.Rsh(d, 1)}
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

// RoundQuoTo sets dst to the integer nearest x/n (n ≠ 0), halves rounding
// toward zero, using t1 and t2 as temporaries. Both Euclidean divisions
// round through it: EuclideanDiv here, and the norm equation's gcd in
// Z[√2]; the word path's roundQuo is tested against it.
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

// EuclideanDiv returns q, r with z = q·w + r (w ≠ 0), rounding each
// coefficient of z/w = z·w̄·(w·w̄)•/N(w) to the nearest integer.
//
// Rounding alone always shrinks the norm. It leaves δ = z/w − q with
// coefficients in [−½, ½]. With σ₁, σ₃ the complex embeddings ω ↦ e^{iπ/4}
// and ω ↦ e^{3iπ/4}, |σ₁(δ)|² + |σ₃(δ)|² = 2·Σδᵢ² ≤ 2, so N(δ) =
// |σ₁(δ)|²·|σ₃(δ)|² ≤ 1; its maximum over the cube is 9/16, at
// δ = (−½, −½, 0, −½). So N(r) = N(w)·N(δ) ≤ (9/16)·N(w) < N(w).
func EuclideanDiv(z, w BOmega) (q, r BOmega) {
	ww := w.Norm2()
	n := ww.NormZ() // > 0: w·w̄ is totally positive
	num := z.Mul(w.Conj()).Mul(BOmegaFromBSqrt2(ww.Bullet()))
	q = NewBOmega(0, 0, 0, 0)
	t1, t2 := new(big.Int), new(big.Int)
	RoundQuoTo(q.A, num.A, n, t1, t2)
	RoundQuoTo(q.B, num.B, n, t1, t2)
	RoundQuoTo(q.C, num.C, n, t1, t2)
	RoundQuoTo(q.D, num.D, n, t1, t2)
	return q, z.Sub(q.Mul(w))
}

// GCD returns a greatest common divisor of z and w in Z[ω] (unique up to
// units), via the Euclidean algorithm; each EuclideanDiv shrinks the
// norm, so it terminates.
func GCD(z, w BOmega) BOmega {
	for !w.IsZero() {
		_, r := EuclideanDiv(z, w)
		z, w = w, r
	}
	return z.Clone()
}
