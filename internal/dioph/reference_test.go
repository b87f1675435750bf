package dioph

// The big.Int reference: the norm equation solved on values with no
// bound on ξ, the solver that the word path (word.go, wordfactor.go)
// repeats step for step. Tests hold Solve and the word path's parts to it.

import (
	"math"
	"math/big"
	"sort"

	"repro/internal/ring"
)

// Hoisted constants (read-only; never mutated).
var (
	bigOne     = big.NewInt(1)
	deltaOmega = ring.NewBOmega(1, 1, 0, 0) // δ = 1 + ω, with δ·δ† = √2·λ
	rootI      = ring.NewBOmega(0, 0, 1, 0) // ω² = i,      i² = −1
	rootISqrt2 = ring.NewBOmega(0, 1, 0, 1) // ω + ω³ = i√2, (i√2)² = −2
)

// mod8 returns p mod 8 without allocating (p > 0).
func mod8(p *big.Int) int64 {
	return int64(p.Bit(0)) | int64(p.Bit(1))<<1 | int64(p.Bit(2))<<2
}

// solveBig is Solve in big.Int arithmetic on values, with no bound on ξ:
// the reference the word path is tested against.
func solveBig(xi ring.BSqrt2) (ring.BOmega, bool) {
	if xi.IsZero() {
		return ring.BOmegaFromInt(0), true
	}
	// ξ must be totally non-negative.
	if xi.Sign() < 0 || xi.Bullet().Sign() < 0 {
		return ring.BOmega{}, false
	}
	t, rem := ring.BOmegaFromInt(1), xi
	// Remove √2 factors: √2 | (a + b√2) iff a is even; quotient is b + (a/2)√2.
	for rem.A.Bit(0) == 0 && !rem.IsZero() {
		rem = ring.BSqrt2{A: rem.B, B: new(big.Int).Rsh(rem.A, 1)}
		t = t.Mul(deltaOmega)
	}
	n := rem.NormZ()
	if n.Sign() == 0 {
		return ring.BOmega{}, false
	}
	factors, ok := Factor(n.Abs(n))
	if !ok {
		return ring.BOmega{}, false
	}
	// times multiplies t by f, e times.
	times := func(f ring.BOmega, e int) {
		for ; e > 0; e-- {
			t = t.Mul(f)
		}
	}
	for _, pf := range factors {
		p := pf.P
		switch mod8(p) {
		case 1, 7:
			// p splits in Z[√2]: π = gcd(p, x − √2), x² ≡ 2 (mod p).
			x := modSqrt(2, p)
			if x == nil {
				return ring.BOmega{}, false
			}
			pi := gcdZSqrt2(ring.BSqrt2{A: p, B: new(big.Int)}, ring.BSqrt2{A: x, B: big.NewInt(-1)})
			if pi.NormZ().CmpAbs(bigOne) == 0 {
				return ring.BOmega{}, false
			}
			for _, prime := range [2]ring.BSqrt2{pi, pi.Bullet()} {
				e := 0
				for q, ok := rem.DivExact(prime); ok; q, ok = rem.DivExact(prime) {
					rem = q
					e++
				}
				if e == 0 {
					continue
				}
				if mod8(p) == 7 {
					// Inert in Z[ω]: even exponent required.
					if e%2 == 1 {
						return ring.BOmega{}, false
					}
					times(ring.BOmegaFromBSqrt2(prime), e/2)
					continue
				}
				// p ≡ 1 (mod 8): split π further in Z[ω] via y² ≡ −1.
				eta, found := splitOmega(prime, p, -1, rootI)
				if !found {
					return ring.BOmega{}, false
				}
				times(eta, e)
			}
		case 3, 5:
			// Inert in Z[√2]; split in Z[ω] via w² ≡ −2, i√2 = ω + ω³
			// (p ≡ 3) or y² ≡ −1, i = ω² (p ≡ 5).
			pz := ring.BSqrt2{A: p, B: new(big.Int)}
			e := 0
			for q, ok := rem.DivExact(pz); ok; q, ok = rem.DivExact(pz) {
				rem = q
				if e++; e > 512 {
					return ring.BOmega{}, false
				}
			}
			if e == 0 {
				continue
			}
			square, root := int64(-2), rootISqrt2
			if mod8(p) == 5 {
				square, root = -1, rootI
			}
			mu, found := splitOmega(pz, p, square, root)
			if !found {
				return ring.BOmega{}, false
			}
			times(mu, e)
		default: // p = 2 cannot appear: √2 factors were removed
			return ring.BOmega{}, false
		}
	}
	// Fix the leftover unit: ξ/(t·t†) must be λ^{2s} (totally positive unit).
	uq, ok := xi.DivExact(t.Norm2())
	if !ok {
		return ring.BOmega{}, false
	}
	j := unitLambdaExponent(uq)
	if j == nil || *j%2 != 0 {
		return ring.BOmega{}, false
	}
	t = t.Mul(ring.BOmegaFromBSqrt2(ring.PowLambda(*j / 2)))
	// Exact verification — the soundness guarantee.
	if !t.Norm2().Equal(xi) {
		return ring.BOmega{}, false
	}
	return t, true
}

// modSqrt returns the square root of square mod the odd prime p that
// big.Int.ModSqrt returns, or nil when square is not a residue.
func modSqrt(square int64, p *big.Int) *big.Int {
	x := big.NewInt(square)
	return new(big.Int).ModSqrt(x.Mod(x, p), p)
}

// splitOmega finds η ∈ Z[ω] with η·η† = π·(unit), where π is a prime of
// Z[√2] above rational prime p, by computing gcd(π, r − root) with
// r² ≡ square (mod p) and root² = square in Z[ω].
func splitOmega(pi ring.BSqrt2, p *big.Int, square int64, root ring.BOmega) (ring.BOmega, bool) {
	r := modSqrt(square, p)
	if r == nil {
		return ring.BOmega{}, false
	}
	target := ring.BOmegaFromBSqrt2(ring.BSqrt2{A: r, B: new(big.Int)}).Sub(root)
	eta := ring.GCD(ring.BOmegaFromBSqrt2(pi), target)
	// η must be a proper divisor (not a unit, not an associate of π itself
	// when π splits).
	if eta.NormZ().CmpAbs(bigOne) == 0 {
		return ring.BOmega{}, false
	}
	return eta, true
}

// unitLambdaExponent returns j with q = λ^j, or nil if q is not a positive
// power-of-λ unit.
func unitLambdaExponent(q ring.BSqrt2) *int {
	if q.Sign() <= 0 {
		return nil
	}
	f := q.Float()
	if f <= 0 || math.IsInf(f, 0) || math.IsNaN(f) {
		return nil
	}
	j := int(math.Round(math.Log(f) / math.Log(1+ring.Sqrt2)))
	if j < -4096 || j > 4096 {
		return nil
	}
	if ring.PowLambda(j).Equal(q) {
		return &j
	}
	return nil
}

// gcdZSqrt2 returns gcd(a, b) in Z[√2] by the Euclidean algorithm: each
// step rounds the coefficients of a/b = a·b•/N(b) to the nearest integer
// (ring.RoundQuoTo), which always shrinks |N| in Z[√2].
func gcdZSqrt2(a, b ring.BSqrt2) ring.BSqrt2 {
	t1, t2 := new(big.Int), new(big.Int)
	for !b.IsZero() {
		n := b.NormZ() // may be negative
		num := a.Mul(b.Bullet())
		q := ring.NewBSqrt2(0, 0)
		ring.RoundQuoTo(q.A, num.A, n, t1, t2)
		ring.RoundQuoTo(q.B, num.B, n, t1, t2)
		a, b = b, a.Sub(q.Mul(b))
	}
	return a
}

// PrimePower is a prime together with its multiplicity.
type PrimePower struct {
	P *big.Int
	E int
}

// Factor returns the prime factorization of n > 0 (sorted by prime), or
// ok=false when the rho budget is exhausted on a hard composite.
func Factor(n *big.Int) ([]PrimePower, bool) {
	if n.Sign() <= 0 {
		return nil, false
	}
	counts := map[string]*PrimePower{}
	add := func(p *big.Int, e int) {
		k := p.String()
		if pp, ok := counts[k]; ok {
			pp.E += e
		} else {
			counts[k] = &PrimePower{P: new(big.Int).Set(p), E: e}
		}
	}
	rem := new(big.Int).Set(n)
	for _, sp := range smallPrimes {
		p := big.NewInt(sp)
		if new(big.Int).Mul(p, p).Cmp(rem) > 0 {
			break
		}
		for {
			q, r := new(big.Int).QuoRem(rem, p, new(big.Int))
			if r.Sign() != 0 {
				break
			}
			rem = q
			add(p, 1)
		}
	}
	// Recursive rho on what remains.
	var split func(m *big.Int) bool
	split = func(m *big.Int) bool {
		if m.Cmp(big.NewInt(1)) == 0 {
			return true
		}
		if m.ProbablyPrime(24) {
			add(m, 1)
			return true
		}
		// Perfect square fast path (common for norms).
		sq := new(big.Int).Sqrt(m)
		if new(big.Int).Mul(sq, sq).Cmp(m) == 0 {
			return split(sq) && split(sq)
		}
		d, ok := rhoBrent(m)
		if !ok {
			return false
		}
		q := new(big.Int).Quo(m, d)
		return split(d) && split(q)
	}
	if !split(rem) {
		return nil, false
	}
	out := make([]PrimePower, 0, len(counts))
	for _, pp := range counts {
		out = append(out, *pp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].P.Cmp(out[j].P) < 0 })
	return out, true
}

// rhoBrent finds a nontrivial factor of an odd composite m using Brent's
// cycle variant of Pollard rho with batched gcds, within maxRhoIter steps.
func rhoBrent(m *big.Int) (*big.Int, bool) {
	one := big.NewInt(1)
	for c := int64(1); c < 32; c++ {
		cBig := big.NewInt(c)
		y := big.NewInt(2)
		g := new(big.Int).Set(one)
		q := new(big.Int).Set(one)
		var x, ys *big.Int
		r := 1
		iter := 0
		const batch = 128
		for g.Cmp(one) == 0 && iter < maxRhoIter {
			x = new(big.Int).Set(y)
			for i := 0; i < r; i++ {
				y.Mul(y, y)
				y.Add(y, cBig)
				y.Mod(y, m)
			}
			for k := 0; k < r && g.Cmp(one) == 0 && iter < maxRhoIter; k += batch {
				ys = new(big.Int).Set(y)
				lim := batch
				if r-k < lim {
					lim = r - k
				}
				for i := 0; i < lim; i++ {
					y.Mul(y, y)
					y.Add(y, cBig)
					y.Mod(y, m)
					diff := new(big.Int).Sub(x, y)
					diff.Abs(diff)
					q.Mul(q, diff)
					q.Mod(q, m)
					iter++
				}
				g.GCD(nil, nil, q, m)
			}
			r *= 2
		}
		if g.Cmp(m) == 0 {
			// Backtrack one step at a time.
			g.Set(one)
			for g.Cmp(one) == 0 {
				ys.Mul(ys, ys)
				ys.Add(ys, cBig)
				ys.Mod(ys, m)
				diff := new(big.Int).Sub(x, ys)
				diff.Abs(diff)
				g.GCD(nil, nil, diff, m)
				iter++
				if iter > maxRhoIter {
					break
				}
			}
		}
		if g.Cmp(one) > 0 && g.Cmp(m) < 0 {
			return g, true
		}
	}
	return nil, false
}
