// Package ring implements exact arithmetic in the rings underlying
// Clifford+T synthesis:
//
//	Z[√2]  = {a + b√2}                       (real quadratic ring)
//	Z[ω]   = {a + bω + cω² + dω³}, ω=e^{iπ/4} (cyclotomic ring of 8th roots)
//	D[ω]   = Z[ω, 1/√2]                       (entries of Clifford+T matrices)
//
// Two parallel implementations are provided: machine int64 coefficients
// (ZOmega, ZSqrt2, UMat: the step-0 table, exact synthesis's peel loop and
// the norm equation's word path) and math/big coefficients (BOmega,
// BSqrt2: gridsynth's u and ξ = 2^k − u·ū, exact synthesis of its
// solutions, and the reference paths that the int64 ones are tested
// against). The big types have value methods; only gridsynth's candidate
// loop uses their in-place forms (inplace.go).
package ring

import (
	"fmt"
	"math"
)

// Sqrt2 is the float64 value of √2, used for numeric embeddings.
const Sqrt2 = math.Sqrt2

// ZOmega is an element a + bω + cω² + dω³ of Z[ω] with ω = e^{iπ/4}
// (so ω² = i and ω⁴ = −1), with int64 coefficients.
type ZOmega struct {
	A, B, C, D int64
}

// ZOmegaFromInt returns the rational integer n as a ring element.
func ZOmegaFromInt(n int64) ZOmega { return ZOmega{A: n} }

// OmegaUnit returns ω^j for any integer j (ω has order 8 up to sign; order 16
// is not needed since ω⁸ = 1).
func OmegaUnit(j int) ZOmega { return ZOmega{A: 1}.MulOmegaPow(j) }

// Add returns z + w.
func (z ZOmega) Add(w ZOmega) ZOmega {
	return ZOmega{z.A + w.A, z.B + w.B, z.C + w.C, z.D + w.D}
}

// Sub returns z − w.
func (z ZOmega) Sub(w ZOmega) ZOmega {
	return ZOmega{z.A - w.A, z.B - w.B, z.C - w.C, z.D - w.D}
}

// Neg returns −z.
func (z ZOmega) Neg() ZOmega { return ZOmega{-z.A, -z.B, -z.C, -z.D} }

// IsZero reports whether z = 0.
func (z ZOmega) IsZero() bool { return z.A == 0 && z.B == 0 && z.C == 0 && z.D == 0 }

// MulOmega returns ω·z. Multiplication by ω shifts coefficients:
// (a, b, c, d) ↦ (−d, a, b, c) because ω⁴ = −1.
func (z ZOmega) MulOmega() ZOmega { return ZOmega{-z.D, z.A, z.B, z.C} }

// MulOmegaPow returns ω^k·z for any integer k: MulOmega applied k mod 8
// times, as one signed permutation of the coefficients.
func (z ZOmega) MulOmegaPow(k int) ZOmega {
	switch k & 7 {
	case 1:
		return ZOmega{-z.D, z.A, z.B, z.C}
	case 2:
		return ZOmega{-z.C, -z.D, z.A, z.B}
	case 3:
		return ZOmega{-z.B, -z.C, -z.D, z.A}
	case 4:
		return ZOmega{-z.A, -z.B, -z.C, -z.D}
	case 5:
		return ZOmega{z.D, -z.A, -z.B, -z.C}
	case 6:
		return ZOmega{z.C, z.D, -z.A, -z.B}
	case 7:
		return ZOmega{z.B, z.C, z.D, -z.A}
	}
	return z
}

// Mul returns z·w (polynomial multiplication modulo ω⁴ = −1).
func (z ZOmega) Mul(w ZOmega) ZOmega {
	// (a1 + b1ω + c1ω² + d1ω³)(a2 + b2ω + c2ω² + d2ω³), reduce ω⁴=−1.
	a := z.A*w.A - z.B*w.D - z.C*w.C - z.D*w.B
	b := z.A*w.B + z.B*w.A - z.C*w.D - z.D*w.C
	c := z.A*w.C + z.B*w.B + z.C*w.A - z.D*w.D
	d := z.A*w.D + z.B*w.C + z.C*w.B + z.D*w.A
	return ZOmega{a, b, c, d}
}

// Conj returns the complex conjugate z̄ (the automorphism ω ↦ ω⁻¹ = −ω³):
// (a, b, c, d) ↦ (a, −d, −c, −b).
func (z ZOmega) Conj() ZOmega { return ZOmega{z.A, -z.D, -z.C, -z.B} }

// Bullet returns the √2-conjugate z• (the automorphism ω ↦ −ω, which maps
// √2 ↦ −√2 while fixing i): (a, b, c, d) ↦ (a, −b, c, −d).
func (z ZOmega) Bullet() ZOmega { return ZOmega{z.A, -z.B, z.C, -z.D} }

// Complex returns the numeric embedding of z in C.
func (z ZOmega) Complex() complex128 {
	// ω = (1+i)/√2, ω² = i, ω³ = (−1+i)/√2.
	re := float64(z.A) + (float64(z.B)-float64(z.D))/Sqrt2
	im := float64(z.C) + (float64(z.B)+float64(z.D))/Sqrt2
	return complex(re, im)
}

// Norm2 returns z·z̄ = |z|² as an element of Z[√2] (it is always real).
func (z ZOmega) Norm2() ZSqrt2 {
	// |z|² = (a²+b²+c²+d²) + (ab + bc + cd − da)·√2.
	return ZSqrt2{
		A: z.A*z.A + z.B*z.B + z.C*z.C + z.D*z.D,
		B: z.A*z.B + z.B*z.C + z.C*z.D - z.D*z.A,
	}
}

// DivisibleBySqrt2 reports whether z/√2 ∈ Z[ω], which holds iff
// a ≡ c (mod 2) and b ≡ d (mod 2).
func (z ZOmega) DivisibleBySqrt2() bool {
	return (z.A-z.C)&1 == 0 && (z.B-z.D)&1 == 0
}

// DivSqrt2 returns z/√2; the caller must ensure divisibility.
// Since √2 = ω − ω³, z/√2 = z(ω−ω³)/2 with coefficients
// ((b−d)/2, (a+c)/2, (b+d)/2, (c−a)/2).
func (z ZOmega) DivSqrt2() ZOmega {
	return ZOmega{(z.B - z.D) / 2, (z.A + z.C) / 2, (z.B + z.D) / 2, (z.C - z.A) / 2}
}

// MulSqrt2 returns z·√2.
func (z ZOmega) MulSqrt2() ZOmega {
	// √2 = ω − ω³.
	return ZOmega{z.B - z.D, z.A + z.C, z.B + z.D, z.C - z.A}
}

// String renders z for debugging.
func (z ZOmega) String() string {
	return fmt.Sprintf("(%d%+dω%+dω²%+dω³)", z.A, z.B, z.C, z.D)
}

// ZSqrt2 is an element a + b√2 of Z[√2] with int64 coefficients.
type ZSqrt2 struct {
	A, B int64
}

// Add returns x + y.
func (x ZSqrt2) Add(y ZSqrt2) ZSqrt2 { return ZSqrt2{x.A + y.A, x.B + y.B} }

// Sub returns x − y.
func (x ZSqrt2) Sub(y ZSqrt2) ZSqrt2 { return ZSqrt2{x.A - y.A, x.B - y.B} }

// Neg returns −x.
func (x ZSqrt2) Neg() ZSqrt2 { return ZSqrt2{-x.A, -x.B} }

// Mul returns x·y.
func (x ZSqrt2) Mul(y ZSqrt2) ZSqrt2 {
	return ZSqrt2{x.A*y.A + 2*x.B*y.B, x.A*y.B + x.B*y.A}
}

// Bullet returns the conjugate a − b√2.
func (x ZSqrt2) Bullet() ZSqrt2 { return ZSqrt2{x.A, -x.B} }

// Float returns the numeric embedding a + b√2.
func (x ZSqrt2) Float() float64 { return float64(x.A) + float64(x.B)*Sqrt2 }

// NormZ returns the rational integer norm x·x• = a² − 2b².
func (x ZSqrt2) NormZ() int64 { return x.A*x.A - 2*x.B*x.B }

// IsZero reports whether x = 0.
func (x ZSqrt2) IsZero() bool { return x.A == 0 && x.B == 0 }

// ToZOmega embeds x into Z[ω] (√2 = ω − ω³).
func (x ZSqrt2) ToZOmega() ZOmega { return ZOmega{x.A, x.B, 0, -x.B} }

// Lambda is the fundamental unit λ = 1 + √2 of Z[√2] (λ·λ• = −1).
var Lambda = ZSqrt2{1, 1}

// LambdaInv is λ⁻¹ = √2 − 1.
var LambdaInv = ZSqrt2{-1, 1}

// String renders x for debugging.
func (x ZSqrt2) String() string { return fmt.Sprintf("(%d%+d√2)", x.A, x.B) }
