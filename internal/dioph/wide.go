package dioph

import "math/bits"

// wordLimit bounds every value the word path stores in an int64: a ring
// coefficient, a quotient, a norm that is fed back into a product. With
// operands below 2^62 a product is below 2^124, so a sum of the at most
// four products any one formula here takes stays below 2^126 and fits in
// a wide.
const wordLimit = 1 << 62

// wide is a signed 128-bit integer in two's complement. The word path
// forms every product of two stored values as a wide (math/bits), so no
// int64 product is ever made; it narrows a result back to an int64 only
// through narrow, which refuses anything at or beyond wordLimit.
type wide struct {
	hi int64
	lo uint64
}

// mul returns a·b exactly.
func mul(a, b int64) wide {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	h := int64(hi)
	if a < 0 {
		h -= b
	}
	if b < 0 {
		h -= a
	}
	return wide{h, lo}
}

// wideOf widens a.
func wideOf(a int64) wide { return wide{a >> 63, uint64(a)} }

func (x wide) add(y wide) wide {
	lo, c := bits.Add64(x.lo, y.lo, 0)
	return wide{x.hi + y.hi + int64(c), lo}
}

func (x wide) sub(y wide) wide {
	lo, b := bits.Sub64(x.lo, y.lo, 0)
	return wide{x.hi - y.hi - int64(b), lo}
}

func (x wide) neg() wide { return wide{}.sub(x) }

func (x wide) isZero() bool { return x.hi == 0 && x.lo == 0 }

func (x wide) abs() wide {
	if x.hi < 0 {
		return x.neg()
	}
	return x
}

// cmp returns −1, 0 or +1 as x is less than, equal to or greater than y.
func (x wide) cmp(y wide) int {
	switch {
	case x.hi < y.hi:
		return -1
	case x.hi > y.hi:
		return 1
	case x.lo < y.lo:
		return -1
	case x.lo > y.lo:
		return 1
	}
	return 0
}

// narrow returns x as an int64 and whether |x| < wordLimit.
func (x wide) narrow() (int64, bool) {
	v := int64(x.lo)
	return v, x.hi == v>>63 && v > -wordLimit && v < wordLimit
}

// udiv returns the quotient and remainder of the unsigned 128-bit x =
// xh:xl by n = nh:nl ≠ 0, with ok=false when the quotient needs more than
// 64 bits. A divisor of two words takes Hacker's Delight's trial quotient
// (divlu on the top word after normalizing), which is at most one short.
func udiv(xh, xl, nh, nl uint64) (q, rh, rl uint64, ok bool) {
	if nh == 0 {
		if xh >= nl {
			return 0, 0, 0, false
		}
		q, rl = bits.Div64(xh, xl, nl)
		return q, 0, rl, true
	}
	s := uint(bits.LeadingZeros64(nh))
	top := nh<<s | nl>>(64-s)
	q, _ = bits.Div64(xh>>1, xl>>1|xh<<63, top)
	q >>= 63 - s
	if q != 0 {
		q--
	}
	ph, pl := bits.Mul64(nl, q)
	ph += nh * q
	var b uint64
	rl, b = bits.Sub64(xl, pl, 0)
	rh, _ = bits.Sub64(xh, ph, b)
	if rh > nh || rh == nh && rl >= nl {
		q++
		rl, b = bits.Sub64(rl, nl, 0)
		rh, _ = bits.Sub64(rh, nh, b)
	}
	return q, rh, rl, true
}

// quoRem returns the truncated quotient x/n (n ≠ 0) and the remainder
// x − q·n, with ok=false when |q| is not below wordLimit. |x| and |n| must
// be below 2^127.
func quoRem(x, n wide) (int64, wide, bool) {
	ax, an := x.abs(), n.abs()
	uq, rh, rl, ok := udiv(uint64(ax.hi), ax.lo, uint64(an.hi), an.lo)
	if !ok || uq >= wordLimit {
		return 0, wide{}, false
	}
	q, r := int64(uq), wide{int64(rh), rl}
	if x.hi < 0 {
		r = r.neg()
	}
	if (x.hi < 0) != (n.hi < 0) {
		q = -q
	}
	return q, r, true
}

// roundQuo returns the integer nearest x/n (n ≠ 0) exactly as
// ring.RoundQuoTo picks it: the truncated quotient, moved by −1 and then
// +1 only where that strictly shrinks |x − q·n|, so halves round toward
// zero. ok is false when the answer is not below wordLimit.
func roundQuo(x, n wide) (int64, bool) {
	q, r, ok := quoRem(x, n)
	if !ok {
		return 0, false
	}
	best, d := int64(0), r.abs()
	if t := r.add(n).abs(); t.cmp(d) < 0 {
		best, d = -1, t
	}
	if t := r.sub(n).abs(); t.cmp(d) < 0 {
		best = 1
	}
	q += best
	return q, q > -wordLimit && q < wordLimit
}
