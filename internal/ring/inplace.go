package ring

import "math/big"

// In-place arithmetic on the big-coefficient ring elements. Every *To
// method writes its result into the receiver, reusing the receiver's
// big.Int storage (no allocation once capacity is established). Methods
// that need temporaries take a *Scratch, which the caller threads through
// a whole computation (one per solver/synthesis, never shared across
// goroutines). All *To methods are alias-safe: the receiver may be one of
// the operands.
//
// The value-semantics API in big.go is a thin wrapper over these methods,
// so there is a single implementation of each operation.

// Scratch holds reusable big.Int temporaries for in-place ring operations.
// The zero value is ready to use.
type Scratch struct {
	t [6]big.Int
}

// Ensure makes the coefficient pointers non-nil so callers can write into
// them directly (solver scratch idiom).
func (x *BSqrt2) Ensure() { x.ensure() }

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

// Set copies y into x.
func (x *BSqrt2) Set(y BSqrt2) {
	x.ensure()
	x.A.Set(y.A)
	x.B.Set(y.B)
}

// SetInt64 sets x = a + b√2.
func (x *BSqrt2) SetInt64(a, b int64) {
	x.ensure()
	x.A.SetInt64(a)
	x.B.SetInt64(b)
}

// AddTo sets x = y + z.
func (x *BSqrt2) AddTo(y, z BSqrt2) {
	x.ensure()
	x.A.Add(y.A, z.A)
	x.B.Add(y.B, z.B)
}

// SubTo sets x = y − z.
func (x *BSqrt2) SubTo(y, z BSqrt2) {
	x.ensure()
	x.A.Sub(y.A, z.A)
	x.B.Sub(y.B, z.B)
}

// NegTo sets x = −y.
func (x *BSqrt2) NegTo(y BSqrt2) {
	x.ensure()
	x.A.Neg(y.A)
	x.B.Neg(y.B)
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

// NormZTo sets dst = x·x• = a² − 2b².
func (x BSqrt2) NormZTo(dst *big.Int, s *Scratch) {
	t := &s.t[0]
	dst.Mul(x.A, x.A)
	t.Mul(x.B, x.B)
	t.Lsh(t, 1)
	dst.Sub(dst, t)
}

// DivExactTo sets x = y/z when z exactly divides y in Z[√2], leaving x
// untouched and returning false otherwise.
func (x *BSqrt2) DivExactTo(y, z BSqrt2, s *Scratch) bool {
	n, pa, pb, t, r := &s.t[0], &s.t[1], &s.t[2], &s.t[3], &s.t[4]
	// n = N(z) = z.A² − 2·z.B², inlined so n and the temporary stay in
	// distinct scratch slots.
	n.Mul(z.A, z.A)
	t.Mul(z.B, z.B)
	t.Lsh(t, 1)
	n.Sub(n, t)
	if n.Sign() == 0 {
		return false
	}
	// p = y·z• computed coefficient-wise (z• = (z.A, −z.B)).
	pa.Mul(y.A, z.A)
	t.Mul(y.B, z.B)
	t.Lsh(t, 1)
	pa.Sub(pa, t)
	pb.Mul(y.B, z.A)
	t.Mul(y.A, z.B)
	pb.Sub(pb, t)
	qa, qb := &s.t[3], &s.t[5]
	qa.QuoRem(pa, n, r)
	if r.Sign() != 0 {
		return false
	}
	qb.QuoRem(pb, n, r)
	if r.Sign() != 0 {
		return false
	}
	x.ensure()
	x.A.Set(qa)
	x.B.Set(qb)
	return true
}

// Ensure makes the coefficient pointers non-nil so callers can write into
// them directly (solver scratch idiom).
func (z *BOmega) Ensure() { z.ensure() }

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

// Set copies w into z.
func (z *BOmega) Set(w BOmega) {
	z.ensure()
	z.A.Set(w.A)
	z.B.Set(w.B)
	z.C.Set(w.C)
	z.D.Set(w.D)
}

// SetInt64 sets z = a + bω + cω² + dω³.
func (z *BOmega) SetInt64(a, b, c, d int64) {
	z.ensure()
	z.A.SetInt64(a)
	z.B.SetInt64(b)
	z.C.SetInt64(c)
	z.D.SetInt64(d)
}

// SetZOmega lifts an int64-coefficient element into z.
func (z *BOmega) SetZOmega(w ZOmega) { z.SetInt64(w.A, w.B, w.C, w.D) }

// SetBSqrt2 embeds x = a + b√2 into z (√2 = ω − ω³).
func (z *BOmega) SetBSqrt2(x BSqrt2) {
	z.ensure()
	z.A.Set(x.A)
	z.B.Set(x.B)
	z.C.SetInt64(0)
	z.D.Neg(x.B)
}

// AddTo sets z = v + w.
func (z *BOmega) AddTo(v, w BOmega) {
	z.ensure()
	z.A.Add(v.A, w.A)
	z.B.Add(v.B, w.B)
	z.C.Add(v.C, w.C)
	z.D.Add(v.D, w.D)
}

// SubTo sets z = v − w.
func (z *BOmega) SubTo(v, w BOmega) {
	z.ensure()
	z.A.Sub(v.A, w.A)
	z.B.Sub(v.B, w.B)
	z.C.Sub(v.C, w.C)
	z.D.Sub(v.D, w.D)
}

// NegTo sets z = −w.
func (z *BOmega) NegTo(w BOmega) {
	z.ensure()
	z.A.Neg(w.A)
	z.B.Neg(w.B)
	z.C.Neg(w.C)
	z.D.Neg(w.D)
}

// ConjTo sets z = w̄ (alias-safe: swaps through scratch-free rotation).
func (z *BOmega) ConjTo(w BOmega) {
	z.ensure()
	if z.B == w.B || z.B == w.D { // receiver aliases operand: rotate via values
		b, d := new(big.Int).Neg(w.D), new(big.Int).Neg(w.B)
		z.A.Set(w.A)
		z.C.Neg(w.C)
		z.B, z.D = b, d
		return
	}
	z.A.Set(w.A)
	z.B.Neg(w.D)
	z.C.Neg(w.C)
	z.D.Neg(w.B)
}

// BulletTo sets z = w• = (a, −b, c, −d).
func (z *BOmega) BulletTo(w BOmega) {
	z.ensure()
	z.A.Set(w.A)
	z.B.Neg(w.B)
	z.C.Set(w.C)
	z.D.Neg(w.D)
}

// MulTo sets z = v·w.
func (z *BOmega) MulTo(v, w BOmega, s *Scratch) {
	z.ensure()
	a, b, c, d, t := &s.t[0], &s.t[1], &s.t[2], &s.t[3], &s.t[4]
	a.Mul(v.A, w.A)
	t.Mul(v.B, w.D)
	a.Sub(a, t)
	t.Mul(v.C, w.C)
	a.Sub(a, t)
	t.Mul(v.D, w.B)
	a.Sub(a, t)
	b.Mul(v.A, w.B)
	t.Mul(v.B, w.A)
	b.Add(b, t)
	t.Mul(v.C, w.D)
	b.Sub(b, t)
	t.Mul(v.D, w.C)
	b.Sub(b, t)
	c.Mul(v.A, w.C)
	t.Mul(v.B, w.B)
	c.Add(c, t)
	t.Mul(v.C, w.A)
	c.Add(c, t)
	t.Mul(v.D, w.D)
	c.Sub(c, t)
	d.Mul(v.A, w.D)
	t.Mul(v.B, w.C)
	d.Add(d, t)
	t.Mul(v.C, w.B)
	d.Add(d, t)
	t.Mul(v.D, w.A)
	d.Add(d, t)
	z.A.Set(a)
	z.B.Set(b)
	z.C.Set(c)
	z.D.Set(d)
}

// DivSqrt2To sets z = w/√2 (caller ensures divisibility).
func (z *BOmega) DivSqrt2To(w BOmega, s *Scratch) {
	z.ensure()
	a, b, c, d := &s.t[0], &s.t[1], &s.t[2], &s.t[3]
	a.Sub(w.B, w.D)
	a.Rsh(a, 1)
	b.Add(w.A, w.C)
	b.Rsh(b, 1)
	c.Add(w.B, w.D)
	c.Rsh(c, 1)
	d.Sub(w.C, w.A)
	d.Rsh(d, 1)
	z.A.Set(a)
	z.B.Set(b)
	z.C.Set(c)
	z.D.Set(d)
}

// MulSqrt2To sets z = w·√2.
func (z *BOmega) MulSqrt2To(w BOmega, s *Scratch) {
	z.ensure()
	a, b, c, d := &s.t[0], &s.t[1], &s.t[2], &s.t[3]
	a.Sub(w.B, w.D)
	b.Add(w.A, w.C)
	c.Add(w.B, w.D)
	d.Sub(w.C, w.A)
	z.A.Set(a)
	z.B.Set(b)
	z.C.Set(c)
	z.D.Set(d)
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

// NormZTo sets dst = |N(z)| ≥ 0.
func (z BOmega) NormZTo(dst *big.Int, s *Scratch) {
	var n2 BSqrt2
	n2.A, n2.B = &s.t[4], &s.t[5]
	z.Norm2To(&n2, s)
	n2.NormZTo(dst, s)
	dst.Abs(dst)
}
