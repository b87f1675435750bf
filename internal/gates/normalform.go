package gates

import (
	"math/bits"

	"repro/internal/ring"
)

// An operator's Matsumoto–Amano normal form can be read off its exact
// Bloch (SO(3)) matrix, as Giles and Selinger show (arXiv 1312.6584):
//
//   - R_ij = ½·Tr(σ_i·u·σ_j·u†), over the axes x, y, z, does not see u's
//     global phase, and for a Clifford+T u it lies in Z[√2]/√2^k. The
//     least such k is u's T count.
//   - While k > 0, exactly one row of √2^k·R has an even integer part in
//     every entry: the z row when the normal form starts with T, the x row
//     when it starts with HT and the y row when it starts with SHT. Taking
//     that syllable off the left lowers k by exactly one.
//   - At k = 0, R is the signed permutation of u's Clifford.
//
// So the syllables peeled and the Clifford left give the position of u's
// entry in a Table, in BuildTable's order, with no index to keep.
//
// Only R's first two columns are kept. The third is their cross product,
// and it never decides a parity: each row of √2^k·R has squared norm 2^k,
// so for k > 0 an even number of its entries have an odd integer part,
// and a row even in the first two columns is even in the third.

// bloch is √2^k times the first two columns of an operator's Bloch matrix
// at exponent k: bloch[j][i] = √2^k·R_ij, for the images of σ_x and σ_y.
type bloch [2][3]ring.ZSqrt2

// address locates u's entry in a table of budget maxT ≤ 24: its T count
// t, the position i of its T-part within level t, and the index c of its
// Clifford in CliffordGroup, so that the entry is Levels[t][24·i + c]. The
// first syllable T, HT or SHT gives i = 0, 1 or 2, and each later one sets
// i ← 2i + bit, bit 1 for SHT, as BuildTable orders its T-parts. address
// reports false when u is not exactly unitary or its T count exceeds maxT.
func address(u *ring.UMat, maxT int) (t, i, c int, ok bool) {
	cliffordOnce.Do(buildCliffords)
	// A reduced u has T count at least 2K−3: R_zz = 1 − |q|²/2^(K−1), and
	// p or q is not divisible by √2. So no entry has K > ⌈maxT/2⌉ + 1.
	if u.K < 0 || u.K > (maxT+1)/2+1 {
		return 0, 0, 0, false
	}
	var x bloch
	k, ok := x.set(u)
	if !ok || k > maxT {
		return 0, 0, 0, false
	}
	v, w := &x[0], &x[1]
	for t = k; k > 0; k-- {
		ex := (v[0].A|w[0].A)&1 == 0
		ey := (v[1].A|w[1].A)&1 == 0
		ez := (v[2].A|w[2].A)&1 == 0
		switch {
		case ez && !ex && !ey && k == t: // T, only as the first syllable
			*v, *w = unT(v[0], v[1], v[2]), unT(w[0], w[1], w[2])
		case ex && !ey && !ez: // HT: H·R has rows (R_z, −R_y, R_x)
			*v, *w = unT(v[2], v[1].Neg(), v[0]), unT(w[2], w[1].Neg(), w[0])
			i = 2 * i
			if k == t {
				i = 1
			}
		case ey && !ex && !ez: // SHT: H·S⁻¹·R has rows (R_z, R_x, R_y)
			*v, *w = unT(v[2], v[0], v[1]), unT(w[2], w[0], w[1])
			i = 2*i + 1
			if k == t {
				i = 2
			}
		default:
			return 0, 0, 0, false
		}
	}
	code := x.permCode()
	if code < 0 || cliffordAt[code] < 0 {
		return 0, 0, 0, false
	}
	return t, i, int(cliffordAt[code]), true
}

// set makes x u's Bloch columns at their least exponent k, or reports
// false when u = [[p, q], [r, s]]/√2^K is not exactly unitary: |p|²+|q|²
// = |r|²+|s|² = 2^K and p·r̄ + q·s̄ = 0. K must be at most 13, as address
// admits: then a unitary's coefficients v satisfy v² ≤ 2^K < 2^14 (so do
// its √2-conjugate's), and u is rejected on a coefficient outside
// −256…255 before any product that could overflow.
func (x *bloch) set(u *ring.UMat) (k int, ok bool) {
	var big uint64
	for r := range u.E {
		for j := range u.E[r] {
			z := &u.E[r][j]
			big |= uint64(z.A+256) | uint64(z.B+256) | uint64(z.C+256) | uint64(z.D+256)
		}
	}
	if big >= 512 {
		return 0, false
	}
	p, q, r, s := u.E[0][0], u.E[0][1], u.E[1][0], u.E[1][1]
	one := ring.ZSqrt2{A: 1 << u.K}
	if p.Norm2().Add(q.Norm2()) != one || r.Norm2().Add(s.Norm2()) != one ||
		p.Mul(r.Conj()).Add(q.Mul(s.Conj())) != (ring.ZOmega{}) {
		return 0, false
	}
	// Over 2^K, u·σ_x·u† and u·σ_y·u† have (0,1) entries c + d and
	// i·(c − d), whose real and −imaginary parts are the x and y rows, and
	// z rows Re and −Im of 2e (r̄·s = −p̄·q, the columns being orthogonal).
	// At exponent 2K+1 the entries are √2 times those parts.
	c, d, e := q.Mul(r.Conj()), p.Mul(s.Conj()), p.Conj().Mul(q)
	cd, dc, e2 := c.Add(d), d.Sub(c), e.Add(e)
	*x = bloch{
		{re2(cd), im2(cd).Neg(), re2(e2)},
		{im2(dc), re2(dc), im2(e2).Neg()},
	}
	// Divide every entry by √2^m for the largest m that keeps them all in
	// Z[√2]: a + b√2 is divisible by √2^(2j) when 2^j divides a and b, and
	// by √2^(2j+1) when 2^(j+1) divides a and 2^j divides b.
	var ora, orb uint64
	for j := range x {
		for i := range x[j] {
			ora |= uint64(x[j][i].A)
			orb |= uint64(x[j][i].B)
		}
	}
	k = 2*u.K + 1
	m := min(2*bits.TrailingZeros64(ora), 2*bits.TrailingZeros64(orb)+1, k)
	for j := range x {
		for i := range x[j] {
			v := &x[j][i]
			if m&1 == 0 {
				v.A, v.B = v.A>>(m/2), v.B>>(m/2)
			} else {
				v.A, v.B = v.B>>(m/2), v.A>>(m/2+1)
			}
		}
	}
	return k - m, true
}

// re2 returns √2·Re(z) and im2 √2·Im(z), in Z[√2]: z = a + bω + cω² + dω³
// has real part a + (b−d)/√2 and imaginary part c + (b+d)/√2.
func re2(z ring.ZOmega) ring.ZSqrt2 { return ring.ZSqrt2{A: z.B - z.D, B: z.A} }
func im2(z ring.ZOmega) ring.ZSqrt2 { return ring.ZSqrt2{A: z.B + z.D, B: z.C} }

// unT takes T off the left of the column (a, b, c) at exponent k, once a
// syllable's Clifford has permuted its rows: T⁻¹ gives ((a+b)/√2,
// (b−a)/√2, c), which is ((a+b)/2, (b−a)/2, c/√2) at exponent k−1. Every
// division is exact.
func unT(a, b, c ring.ZSqrt2) [3]ring.ZSqrt2 {
	return [3]ring.ZSqrt2{
		{A: (a.A + b.A) >> 1, B: (a.B + b.B) >> 1},
		{A: (b.A - a.A) >> 1, B: (b.B - a.B) >> 1},
		{A: c.B, B: c.A >> 1},
	}
}

// permCode names the signed permutation whose first two columns x holds,
// each the unit vector ±e_r coded 2r (+1 when negative), as 6·code0 +
// code1 < 36. It returns −1 when a column is not a signed unit vector.
func (x *bloch) permCode() int {
	code := 0
	for _, v := range x {
		a0, a1, a2 := v[0].A, v[1].A, v[2].A
		if a0*a0+a1*a1+a2*a2 != 1 || v[0].B|v[1].B|v[2].B != 0 {
			return -1
		}
		code = 6*code + int(2*(a1&1+2*(a2&1))+int64(uint64(a0+a1+a2)>>63))
	}
	return code
}
