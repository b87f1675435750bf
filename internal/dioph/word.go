package dioph

import "repro/internal/ring"

// The word path: the big path's steps, in its order, on int64
// coefficients, with one step added: a residue pre-filter (preFilter64)
// that rejects before factoring what factoring would reject.
// Every product is a wide and every stored result passes narrow, so a
// value that would leave the word range is caught before it is stored;
// the call is then handed to the big path from its start, which returns
// the reference answer. Each Euclidean step rounds the same rational
// quotients as the big path (roundQuo), so the same associates, and hence
// the same t, come out.

// wordNormLimit bounds |N(ξ)| for the word path. Every prime p it splits
// is then below 2^31, so the largest first step of a Z[ω] gcd, with
// r − root for a root r < p, has w·w̄ = r² + 1 or r² + 2 below 2^62.
const wordNormLimit = 1 << 31

// outcome is how the word path ended.
type outcome int8

const (
	handOff outcome = iota // ξ is out of range, or a value left it: use the big path
	noSolution
	solved
)

// lambdaPows[j] = λ^j for every j ≥ 0 whose coefficients lie below
// wordLimit; λ^−j = (−1)^j·(λ^j)•.
var lambdaPows = func() []ring.ZSqrt2 {
	pows := []ring.ZSqrt2{{A: 1}}
	for {
		next, ok := mulS(pows[len(pows)-1], ring.Lambda)
		if !ok {
			return pows
		}
		pows = append(pows, next)
	}
}()

// lambdaPow returns λ^j for |j| < len(lambdaPows).
func lambdaPow(j int) ring.ZSqrt2 {
	if j >= 0 {
		return lambdaPows[j]
	}
	x := lambdaPows[-j].Bullet()
	if j%2 != 0 {
		x = x.Neg()
	}
	return x
}

var (
	deltaWord      = ring.ZOmega{A: 1, B: 1} // δ = 1 + ω
	rootIWord      = ring.ZOmega{C: 1}       // ω² = i
	rootISqrt2Word = ring.ZOmega{B: 1, D: 1} // ω + ω³ = i√2
)

func mulS(x, y ring.ZSqrt2) (ring.ZSqrt2, bool) {
	bb := mul(x.B, y.B)
	a, okA := mul(x.A, y.A).add(bb).add(bb).narrow()
	b, okB := mul(x.A, y.B).add(mul(x.B, y.A)).narrow()
	return ring.ZSqrt2{A: a, B: b}, okA && okB
}

// normS returns N(x) = a² − 2b².
func normS(x ring.ZSqrt2) wide {
	bb := mul(x.B, x.B)
	return mul(x.A, x.A).sub(bb).sub(bb)
}

// mulOWide returns v·w with unnarrowed coefficients.
func mulOWide(v, w ring.ZOmega) [4]wide {
	return [4]wide{
		mul(v.A, w.A).sub(mul(v.B, w.D)).sub(mul(v.C, w.C)).sub(mul(v.D, w.B)),
		mul(v.A, w.B).add(mul(v.B, w.A)).sub(mul(v.C, w.D)).sub(mul(v.D, w.C)),
		mul(v.A, w.C).add(mul(v.B, w.B)).add(mul(v.C, w.A)).sub(mul(v.D, w.D)),
		mul(v.A, w.D).add(mul(v.B, w.C)).add(mul(v.C, w.B)).add(mul(v.D, w.A)),
	}
}

func mulO(v, w ring.ZOmega) (ring.ZOmega, bool) {
	c := mulOWide(v, w)
	a, okA := c[0].narrow()
	b, okB := c[1].narrow()
	cc, okC := c[2].narrow()
	d, okD := c[3].narrow()
	return ring.ZOmega{A: a, B: b, C: cc, D: d}, okA && okB && okC && okD
}

func inWord(a int64) bool { return a > -wordLimit && a < wordLimit }

// norm2O returns z·z̄ ∈ Z[√2].
func norm2O(z ring.ZOmega) (ring.ZSqrt2, bool) {
	a, okA := mul(z.A, z.A).add(mul(z.B, z.B)).add(mul(z.C, z.C)).add(mul(z.D, z.D)).narrow()
	b, okB := mul(z.A, z.B).add(mul(z.B, z.C)).add(mul(z.C, z.D)).sub(mul(z.D, z.A)).narrow()
	return ring.ZSqrt2{A: a, B: b}, okA && okB
}

// gcdS is gcdZSqrt2 on words.
func gcdS(a, b ring.ZSqrt2) (ring.ZSqrt2, bool) {
	for !b.IsZero() {
		n := normS(b)
		bb := mul(a.B, b.B)
		qa, okA := roundQuo(mul(a.A, b.A).sub(bb).sub(bb), n)
		qb, okB := roundQuo(mul(a.B, b.A).sub(mul(a.A, b.B)), n)
		if !okA || !okB {
			return ring.ZSqrt2{}, false
		}
		qbv, ok := mulS(ring.ZSqrt2{A: qa, B: qb}, b)
		if !ok {
			return ring.ZSqrt2{}, false
		}
		r := a.Sub(qbv)
		if !inWord(r.A) || !inWord(r.B) {
			return ring.ZSqrt2{}, false
		}
		a, b = b, r
	}
	return a, true
}

// divExactS is ring.BSqrt2.DivExact on words: y/z, exact reports
// whether z divides y, and ok=false means a value left the word range.
func divExactS(y, z ring.ZSqrt2) (q ring.ZSqrt2, exact, ok bool) {
	n := normS(z)
	if n.isZero() {
		return ring.ZSqrt2{}, false, true
	}
	bb := mul(y.B, z.B)
	qa, ra, okA := quoRem(mul(y.A, z.A).sub(bb).sub(bb), n)
	if !okA {
		return ring.ZSqrt2{}, false, false
	}
	if !ra.isZero() {
		return ring.ZSqrt2{}, false, true
	}
	qb, rb, okB := quoRem(mul(y.B, z.A).sub(mul(y.A, z.B)), n)
	if !okB {
		return ring.ZSqrt2{}, false, false
	}
	return ring.ZSqrt2{A: qa, B: qb}, rb.isZero(), true
}

// euclidO is ring.EuclideanDiv's remainder on words: z − q·w for w ≠ 0,
// with q the coefficient-wise rounding of z·w̄·(w·w̄)•/N(w), so
// N(z − q·w) ≤ (9/16)·N(w) (see ring.EuclideanDiv).
func euclidO(z, w ring.ZOmega) (ring.ZOmega, bool) {
	ww, ok := norm2O(w)
	if !ok {
		return ring.ZOmega{}, false
	}
	n := normS(ww) // N(w) > 0: w·w̄ is totally positive
	u, ok := mulO(z, w.Conj())
	if !ok {
		return ring.ZOmega{}, false
	}
	num := mulOWide(u, ring.ZOmega{A: ww.A, B: -ww.B, D: ww.B})
	var q ring.ZOmega
	var okQ [4]bool
	q.A, okQ[0] = roundQuo(num[0], n)
	q.B, okQ[1] = roundQuo(num[1], n)
	q.C, okQ[2] = roundQuo(num[2], n)
	q.D, okQ[3] = roundQuo(num[3], n)
	if !(okQ[0] && okQ[1] && okQ[2] && okQ[3]) {
		return ring.ZOmega{}, false
	}
	qw, ok := mulO(q, w)
	if !ok {
		return ring.ZOmega{}, false
	}
	r := z.Sub(qw) // below 2^63: no wrap
	return r, inWord(r.A) && inWord(r.B) && inWord(r.C) && inWord(r.D)
}

// gcdO is ring.GCD on words.
func gcdO(a, b ring.ZOmega) (ring.ZOmega, bool) {
	for !b.IsZero() {
		r, ok := euclidO(a, b)
		if !ok {
			return ring.ZOmega{}, false
		}
		a, b = b, r
	}
	return a, true
}

// unitExponentWord is unitLambdaExponent on words: j with q = λ^j, or
// ok=false if q is not a positive power of λ. Every positive unit is
// some λ^j, and one whose coefficients lie below wordLimit is in
// lambdaPows, so the table answers wherever the big path's logarithm does.
func unitExponentWord(q ring.ZSqrt2) (int, bool) {
	if q.Sign() <= 0 {
		return 0, false
	}
	if n := normS(q).abs(); n.cmp(wideOf(1)) != 0 {
		return 0, false
	}
	b := q.B
	if b < 0 {
		b = -b
	}
	for j, l := range lambdaPows {
		if l.B == b {
			for _, cand := range [2]int{j, -j} {
				if lambdaPow(cand) == q {
					return cand, true
				}
			}
		}
	}
	return 0, false
}

// solveWord runs Solve on words. It hands off (to the big path, from the
// start) when ξ's coefficients reach wordLimit or |N(ξ)| reaches
// wordNormLimit, and whenever a later value would leave the word range.
func (sv *Solver) solveWord(x ring.ZSqrt2) (ring.ZOmega, outcome) {
	if !inWord(x.A) || !inWord(x.B) || normS(x).abs().cmp(wideOf(wordNormLimit)) >= 0 {
		return ring.ZOmega{}, handOff
	}
	if x.IsZero() {
		return ring.ZOmega{}, solved
	}
	if x.Sign() < 0 || x.Bullet().Sign() < 0 {
		return ring.ZOmega{}, noSolution
	}
	t, rem := ring.ZOmega{A: 1}, x
	// Remove √2 factors: √2 | (a + b√2) iff a is even; quotient is b + (a/2)√2.
	for rem.A&1 == 0 && !rem.IsZero() {
		rem = ring.ZSqrt2{A: rem.B, B: rem.A >> 1}
		var ok bool
		if t, ok = mulO(t, deltaWord); !ok {
			return ring.ZOmega{}, handOff
		}
	}
	n, _ := normS(rem).abs().narrow() // |N(rem)| ≤ |N(ξ)| < wordNormLimit
	if n == 0 {
		return ring.ZOmega{}, noSolution
	}
	if !preFilter64(n) {
		return ring.ZOmega{}, noSolution
	}
	factors, ok := sv.factorWord(uint64(n))
	if !ok {
		return ring.ZOmega{}, noSolution
	}
	// times multiplies t by f, e times.
	times := func(f ring.ZOmega, e int) bool {
		for ; e > 0; e-- {
			var ok bool
			if t, ok = mulO(t, f); !ok {
				return false
			}
		}
		return true
	}
	for _, pf := range factors {
		p := pf.p
		switch p % 8 {
		case 1, 7:
			// p splits in Z[√2]: π = gcd(p, x − √2), x² ≡ 2 (mod p).
			r, found := sv.rootMod(2, p)
			if !found {
				return ring.ZOmega{}, noSolution
			}
			pi, ok := gcdS(ring.ZSqrt2{A: int64(p)}, ring.ZSqrt2{A: int64(r), B: -1})
			if !ok {
				return ring.ZOmega{}, handOff
			}
			if normS(pi).abs().cmp(wideOf(1)) == 0 {
				return ring.ZOmega{}, noSolution
			}
			for _, prime := range [2]ring.ZSqrt2{pi, pi.Bullet()} {
				e := 0
				for {
					q, exact, ok := divExactS(rem, prime)
					if !ok {
						return ring.ZOmega{}, handOff
					}
					if !exact {
						break
					}
					rem = q
					e++
				}
				if e == 0 {
					continue
				}
				if p%8 == 7 {
					// Inert in Z[ω]: even exponent required.
					if e%2 == 1 {
						return ring.ZOmega{}, noSolution
					}
					if !times(prime.ToZOmega(), e/2) {
						return ring.ZOmega{}, handOff
					}
					continue
				}
				// p ≡ 1 (mod 8): split π further in Z[ω] via y² ≡ −1.
				eta, out := sv.splitOmegaWord(prime, p, -1, rootIWord)
				if out != solved {
					return ring.ZOmega{}, out
				}
				if !times(eta, e) {
					return ring.ZOmega{}, handOff
				}
			}
		case 3, 5:
			// Inert in Z[√2]; split in Z[ω] via w² ≡ −2, i√2 = ω + ω³
			// (p ≡ 3) or y² ≡ −1, i = ω² (p ≡ 5).
			e := 0
			for rem.A%int64(p) == 0 && rem.B%int64(p) == 0 {
				rem = ring.ZSqrt2{A: rem.A / int64(p), B: rem.B / int64(p)}
				e++
			}
			if e == 0 {
				continue
			}
			square, root := int64(-2), rootISqrt2Word
			if p%8 == 5 {
				square, root = -1, rootIWord
			}
			mu, out := sv.splitOmegaWord(ring.ZSqrt2{A: int64(p)}, p, square, root)
			if out != solved {
				return ring.ZOmega{}, out
			}
			if !times(mu, e) {
				return ring.ZOmega{}, handOff
			}
		default: // p = 2 cannot appear: √2 factors were removed
			return ring.ZOmega{}, noSolution
		}
	}
	// Fix the leftover unit: ξ/(t·t†) must be λ^{2s} (totally positive unit).
	tt, ok := norm2O(t)
	if !ok {
		return ring.ZOmega{}, handOff
	}
	uq, exact, ok := divExactS(x, tt)
	if !ok {
		return ring.ZOmega{}, handOff
	}
	if !exact {
		return ring.ZOmega{}, noSolution
	}
	j, ok := unitExponentWord(uq)
	if !ok || j%2 != 0 {
		return ring.ZOmega{}, noSolution
	}
	if t, ok = mulO(t, lambdaPow(j/2).ToZOmega()); !ok {
		return ring.ZOmega{}, handOff
	}
	// Exact verification — the soundness guarantee.
	if tt, ok = norm2O(t); !ok || tt != x {
		return ring.ZOmega{}, noSolution
	}
	return t, solved
}

// splitOmegaWord is splitOmega on words.
func (sv *Solver) splitOmegaWord(pi ring.ZSqrt2, p uint64, square int64, root ring.ZOmega) (ring.ZOmega, outcome) {
	r, found := sv.rootMod(square, p)
	if !found {
		return ring.ZOmega{}, noSolution
	}
	eta, ok := gcdO(pi.ToZOmega(), ring.ZOmega{A: int64(r)}.Sub(root))
	if !ok {
		return ring.ZOmega{}, handOff
	}
	n2, ok := norm2O(eta)
	if !ok {
		return ring.ZOmega{}, handOff
	}
	if normS(n2).abs().cmp(wideOf(1)) == 0 {
		return ring.ZOmega{}, noSolution
	}
	return eta, solved
}
