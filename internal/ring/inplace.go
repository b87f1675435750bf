package ring

import "math/big"

// In-place arithmetic on the big-coefficient ring elements, for the one
// loop that needs it: gridsynth.Rz forms ξ = 2^k − u·ū for every scanned
// candidate u and doubles 2^k at each k, reusing its big.Ints across the
// whole search. Every *To method writes its result into the receiver,
// reusing the receiver's big.Int storage (no allocation once capacity is
// established), and is alias-safe: the receiver may be one of the
// operands. Methods that need temporaries take a *Scratch, which the
// caller threads through the loop (never shared across goroutines).
//
// The value methods Sub, Bullet and Mul of BSqrt2 and Norm2 of BOmega
// wrap these forms, so each of those operations has one implementation.

// Scratch holds reusable big.Int temporaries for in-place ring operations.
// The zero value is ready to use.
type Scratch struct {
	t [3]big.Int
}

// ensure makes the coefficient pointers non-nil so in-place methods can
// write into them.
func (x *BSqrt2) ensure() {
	if x.A == nil {
		x.A = new(big.Int)
	}
	if x.B == nil {
		x.B = new(big.Int)
	}
}

// SubTo sets x = y − z.
func (x *BSqrt2) SubTo(y, z BSqrt2) {
	x.ensure()
	x.A.Sub(y.A, z.A)
	x.B.Sub(y.B, z.B)
}

// BulletTo sets x = y• = a − b√2.
func (x *BSqrt2) BulletTo(y BSqrt2) {
	x.ensure()
	x.A.Set(y.A)
	x.B.Neg(y.B)
}

// MulTo sets x = y·z.
func (x *BSqrt2) MulTo(y, z BSqrt2, s *Scratch) {
	x.ensure()
	a, b, t := &s.t[0], &s.t[1], &s.t[2]
	a.Mul(y.A, z.A)
	t.Mul(y.B, z.B)
	t.Lsh(t, 1)
	a.Add(a, t)
	b.Mul(y.A, z.B)
	t.Mul(y.B, z.A)
	b.Add(b, t)
	x.A.Set(a)
	x.B.Set(b)
}

// ensure makes the coefficient pointers non-nil so in-place methods can
// write into them.
func (z *BOmega) ensure() {
	if z.A == nil {
		z.A = new(big.Int)
	}
	if z.B == nil {
		z.B = new(big.Int)
	}
	if z.C == nil {
		z.C = new(big.Int)
	}
	if z.D == nil {
		z.D = new(big.Int)
	}
}

// SetZOmega lifts an int64-coefficient element into z.
func (z *BOmega) SetZOmega(w ZOmega) {
	z.ensure()
	z.A.SetInt64(w.A)
	z.B.SetInt64(w.B)
	z.C.SetInt64(w.C)
	z.D.SetInt64(w.D)
}

// Norm2To sets dst = z·z̄ ∈ Z[√2].
func (z BOmega) Norm2To(dst *BSqrt2, s *Scratch) {
	dst.ensure()
	a, b, t := &s.t[0], &s.t[1], &s.t[2]
	a.Mul(z.A, z.A)
	t.Mul(z.B, z.B)
	a.Add(a, t)
	t.Mul(z.C, z.C)
	a.Add(a, t)
	t.Mul(z.D, z.D)
	a.Add(a, t)
	b.Mul(z.A, z.B)
	t.Mul(z.B, z.C)
	b.Add(b, t)
	t.Mul(z.C, z.D)
	b.Add(b, t)
	t.Mul(z.D, z.A)
	b.Sub(b, t)
	dst.A.Set(a)
	dst.B.Set(b)
}
