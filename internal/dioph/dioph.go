// Package dioph solves the norm equation t·t† = ξ over Z[ω] for totally
// positive ξ ∈ Z[√2] — the Diophantine step of Ross–Selinger gridsynth.
//
// Strategy (the standard one): factor the rational norm N(ξ) = ξ·ξ•
// (trial division + Pollard–Brent rho with a budget), split each rational
// prime according to its class mod 8 using square roots mod p
// (big.Int.ModSqrt) and Euclidean gcds in Z[√2] and Z[ω], assemble t from
// the prime pieces, fix the leftover unit λ^{2s}, and verify t·t† = ξ
// exactly. A failed factorization or verification returns ok=false and the
// caller simply moves to the next grid candidate (standard gridsynth
// practice; completeness is heuristic, soundness is exact).
//
// A ξ with coefficients below 2^62 and norm below 2^31, as every ξ
// gridsynth produces down to ε = 1e-10 has, is solved in machine words
// (word.go): the same steps in the same order, on int64 coefficients with
// 128-bit products, returning the same t. Any other ξ takes the big.Int
// path.
//
// The Solver type carries all temporaries, a per-search square-root memo
// and a cheap residue pre-filter, so a search over many candidates
// performs no steady-state allocation beyond the t it returns (and
// math/big growth on the big path); SolveNormEquation is the one-shot
// convenience wrapper.
package dioph

import (
	"math"
	"math/big"

	"repro/internal/ring"
)

// maxRhoIter bounds Pollard rho work per composite.
const maxRhoIter = 1 << 17

// Hoisted constants (read-only; never mutated).
var (
	bigOne     = big.NewInt(1)
	bigTwo     = big.NewInt(2)
	bigNegOne  = big.NewInt(-1)
	bigNegTwo  = big.NewInt(-2)
	deltaOmega = ring.NewBOmega(1, 1, 0, 0) // δ = 1 + ω, with δ·δ† = √2·λ
	rootI      = ring.NewBOmega(0, 0, 1, 0) // ω² = i,      i² = −1
	rootISqrt2 = ring.NewBOmega(0, 1, 0, 1) // ω + ω³ = i√2, (i√2)² = −2
)

// preFilterEnabled gates the residue pre-filter. It only exists so the
// equality tests can prove the filter rejects exactly the candidates the
// full solver would reject; production code never turns it off.
var preFilterEnabled = true

// SetPreFilter toggles the residue pre-filter (for tests); it returns the
// previous setting.
func SetPreFilter(enabled bool) bool {
	prev := preFilterEnabled
	preFilterEnabled = enabled
	return prev
}

// fastPath gates the word path (word.go). Like preFilterEnabled it exists
// so the equality tests can run the big.Int reference engine; production
// code never turns it off.
var fastPath = true

// SetFastPath toggles the word path (for tests and benchmarks); it
// returns the previous setting.
func SetFastPath(enabled bool) bool {
	prev := fastPath
	fastPath = enabled
	return prev
}

// prefilterPrimes are the small rational primes p ≡ 7 (mod 8). Such p
// split in Z[√2] into π·π•, and both π-exponents of ξ must be even for
// t·t† = ξ to be solvable (π is inert in Z[ω]); an odd valuation
// v_p(N(ξ)) = e_π + e_π• certifies unsolvability before any factoring.
var prefilterPrimes = [...]int64{7, 23, 31, 47, 71, 79, 103, 127, 151, 167,
	191, 199, 223, 239, 263, 271, 311, 359, 367, 383}

// sqrtKey memoizes ModSqrt(square, p) for int64-sized p.
type sqrtKey struct {
	square int8
	p      int64
}

// Solver carries the scratch state of norm-equation solving: big.Int
// temporaries, Euclidean gcd rotation slots in both rings, and a per-prime
// ModSqrt memo. One Solver serves a whole candidate search (it is reused
// across SolveNormEquation calls); it is not safe for concurrent use.
type Solver struct {
	s   ring.Scratch
	st  ring.EuclidState
	rem ring.BSqrt2
	q   ring.BSqrt2
	xb  ring.BSqrt2
	pi  ring.BSqrt2
	piB ring.BSqrt2
	d   ring.BSqrt2
	tt  ring.BSqrt2
	uq  ring.BSqrt2
	t   ring.BOmega
	tmp ring.BOmega
	trg ring.BOmega
	n   big.Int
	n2  big.Int
	h   big.Int
	e1  big.Int
	e2  big.Int
	// Z[√2] gcd rotation slots and Euclid temporaries.
	ga, gb, gr, gq ring.BSqrt2
	gnum, gbt      ring.BSqrt2
	gn             big.Int

	memo map[sqrtKey]*big.Int

	// Word path: the square-root memo and the factorization.
	roots  map[sqrtKey]wordRoot
	powers []wordPower
}

// NewSolver returns a Solver ready for a candidate search.
func NewSolver() *Solver {
	return &Solver{memo: make(map[sqrtKey]*big.Int, 16), roots: make(map[sqrtKey]wordRoot, 16)}
}

// SolveNormEquation returns t with t·t† = ξ, or ok=false if ξ is not
// expressible (or the factoring budget was exceeded). One-shot wrapper
// over Solver for callers without a search loop.
func SolveNormEquation(xi ring.BSqrt2) (ring.BOmega, bool) {
	return NewSolver().Solve(xi)
}

// modSqrt returns √square mod p (or nil), memoizing per prime for the
// lifetime of the Solver. square must be small (2, −1 or −2 here); the
// returned value is shared and must not be mutated.
func (sv *Solver) modSqrt(square *big.Int, p *big.Int) *big.Int {
	if p.IsInt64() {
		k := sqrtKey{square: int8(square.Int64()), p: p.Int64()}
		if r, ok := sv.memo[k]; ok {
			return r
		}
		r := new(big.Int).ModSqrt(sv.h.Mod(square, p), p)
		sv.memo[k] = r
		return r
	}
	return new(big.Int).ModSqrt(sv.h.Mod(square, p), p)
}

// mod8 returns p mod 8 without allocating (p > 0).
func mod8(p *big.Int) int64 {
	return int64(p.Bit(0)) | int64(p.Bit(1))<<1 | int64(p.Bit(2))<<2
}

// preFilter reports whether n = |N(ξ)| passes the cheap necessary
// conditions (true = may be solvable). It rejects any n with odd
// valuation at a small prime ≡ 7 (mod 8); the full solver would reject
// such ξ after factoring, so filtering first only saves work and cannot
// change the result.
func (sv *Solver) preFilter(n *big.Int) bool {
	if v, ok := n.Int64(), n.IsInt64(); ok && v > 0 {
		return preFilter64(v)
	}
	// Big n: same test with scratch big.Ints (still far cheaper than rho).
	sv.h.Set(n)
	for _, p := range prefilterPrimes {
		sv.e2.SetInt64(p)
		e := 0
		for {
			sv.e1.QuoRem(&sv.h, &sv.e2, &sv.n2)
			if sv.n2.Sign() != 0 {
				break
			}
			sv.h.Set(&sv.e1)
			e++
		}
		if e&1 == 1 {
			return false
		}
	}
	return true
}

// preFilter64 is preFilter for 0 < v < 2^63.
func preFilter64(v int64) bool {
	for _, p := range prefilterPrimes {
		if v < p {
			break
		}
		e := 0
		for v%p == 0 {
			v /= p
			e++
		}
		if e&1 == 1 {
			return false
		}
	}
	return true
}

// Solve returns t with t·t† = ξ, or ok=false if ξ is not expressible (or
// the factoring budget was exceeded). The result is freshly allocated and
// owned by the caller; all intermediates live in the Solver. ξ whose
// coefficients and norm fit the word path (word.go) is solved in machine
// words, and any other in big.Int; both return the same answer.
func (sv *Solver) Solve(xi ring.BSqrt2) (ring.BOmega, bool) {
	if fastPath {
		switch t, out := sv.solveWord(xi); out {
		case solved:
			return ring.BOmegaFromZOmega(t), true
		case noSolution:
			return ring.BOmega{}, false
		}
	}
	return sv.solveBig(xi)
}

// solveBig is Solve in big.Int arithmetic, the reference.
func (sv *Solver) solveBig(xi ring.BSqrt2) (ring.BOmega, bool) {
	if xi.IsZero() {
		return ring.BOmegaFromInt(0), true
	}
	// ξ must be totally non-negative.
	sv.xb.BulletTo(xi)
	if xi.Sign() < 0 || sv.xb.Sign() < 0 {
		return ring.BOmega{}, false
	}
	sv.t.SetInt64(1, 0, 0, 0)
	sv.rem.Set(xi)
	// Remove √2 factors: √2 | (a + b√2) iff a is even; quotient is b + (a/2)√2.
	for sv.rem.A.Bit(0) == 0 && !sv.rem.IsZero() {
		sv.h.Rsh(sv.rem.A, 1)
		sv.rem.A.Set(sv.rem.B)
		sv.rem.B.Set(&sv.h)
		sv.t.MulTo(sv.t, deltaOmega, &sv.s)
	}
	sv.rem.NormZTo(&sv.n, &sv.s)
	sv.n.Abs(&sv.n)
	if sv.n.Sign() == 0 {
		return ring.BOmega{}, false
	}
	if preFilterEnabled && !sv.preFilter(&sv.n) {
		return ring.BOmega{}, false
	}
	factors, ok := Factor(&sv.n)
	if !ok {
		return ring.BOmega{}, false
	}
	for _, pf := range factors {
		p := pf.P
		switch mod8(p) {
		case 1, 7:
			// p splits in Z[√2]: π = gcd(p, x − √2), x² ≡ 2 (mod p).
			x := sv.modSqrt(bigTwo, p)
			if x == nil {
				return ring.BOmega{}, false
			}
			sv.d.SetInt64(0, 0)
			sv.d.A.Set(p)
			sv.tt.SetInt64(0, -1)
			sv.tt.A.Set(x)
			sv.gcdZSqrt2To(&sv.pi, sv.d, sv.tt)
			sv.pi.NormZTo(&sv.n2, &sv.s)
			if sv.n2.CmpAbs(bigOne) == 0 {
				return ring.BOmega{}, false
			}
			sv.piB.BulletTo(sv.pi)
			for _, prime := range [2]*ring.BSqrt2{&sv.pi, &sv.piB} {
				e := 0
				for sv.q.DivExactTo(sv.rem, *prime, &sv.s) {
					sv.rem, sv.q = sv.q, sv.rem
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
					sv.tmp.SetBSqrt2(*prime)
					for i := 0; i < e/2; i++ {
						sv.t.MulTo(sv.t, sv.tmp, &sv.s)
					}
					continue
				}
				// p ≡ 1 (mod 8): split π further in Z[ω] via y² ≡ −1.
				eta, found := sv.splitOmega(*prime, p, bigNegOne, rootI)
				if !found {
					return ring.BOmega{}, false
				}
				for i := 0; i < e; i++ {
					sv.t.MulTo(sv.t, eta, &sv.s)
				}
			}
		case 3:
			// Inert in Z[√2]; split in Z[ω] via w² ≡ −2, i√2 = ω + ω³.
			e, found := sv.divideOutRational(p)
			if !found {
				return ring.BOmega{}, false
			}
			if e > 0 {
				sv.d.SetInt64(0, 0)
				sv.d.A.Set(p)
				mu, got := sv.splitOmega(sv.d, p, bigNegTwo, rootISqrt2)
				if !got {
					return ring.BOmega{}, false
				}
				for i := 0; i < e; i++ {
					sv.t.MulTo(sv.t, mu, &sv.s)
				}
			}
		case 5:
			// Inert in Z[√2]; split in Z[ω] via y² ≡ −1, i = ω².
			e, found := sv.divideOutRational(p)
			if !found {
				return ring.BOmega{}, false
			}
			if e > 0 {
				sv.d.SetInt64(0, 0)
				sv.d.A.Set(p)
				nu, got := sv.splitOmega(sv.d, p, bigNegOne, rootI)
				if !got {
					return ring.BOmega{}, false
				}
				for i := 0; i < e; i++ {
					sv.t.MulTo(sv.t, nu, &sv.s)
				}
			}
		default: // p = 2 cannot appear: √2 factors were removed
			return ring.BOmega{}, false
		}
	}
	// Fix the leftover unit: ξ/(t·t†) must be λ^{2s} (totally positive unit).
	sv.t.Norm2To(&sv.tt, &sv.s)
	if !sv.uq.DivExactTo(xi, sv.tt, &sv.s) {
		return ring.BOmega{}, false
	}
	j := unitLambdaExponent(sv.uq)
	if j == nil || *j%2 != 0 {
		return ring.BOmega{}, false
	}
	sv.tmp.SetBSqrt2(ring.PowLambda(*j / 2))
	sv.t.MulTo(sv.t, sv.tmp, &sv.s)
	// Exact verification — the soundness guarantee.
	sv.t.Norm2To(&sv.tt, &sv.s)
	if !sv.tt.Equal(xi) {
		return ring.BOmega{}, false
	}
	return sv.t.Clone(), true
}

// divideOutRational removes all factors of rational prime p from sv.rem.
func (sv *Solver) divideOutRational(p *big.Int) (int, bool) {
	e := 0
	sv.d.SetInt64(0, 0)
	sv.d.A.Set(p)
	for {
		if !sv.q.DivExactTo(sv.rem, sv.d, &sv.s) {
			return e, true
		}
		sv.rem, sv.q = sv.q, sv.rem
		e++
		if e > 512 {
			return e, false
		}
	}
}

// splitOmega finds η ∈ Z[ω] with η·η† = π·(unit), where π is a prime of
// Z[√2] above rational prime p, by computing gcd(π, r − root) with
// r² ≡ square (mod p) and root² = square in Z[ω]. The result aliases
// freshly allocated storage (safe until the caller's next use of it ends).
func (sv *Solver) splitOmega(pi ring.BSqrt2, p, square *big.Int, root ring.BOmega) (ring.BOmega, bool) {
	r := sv.modSqrt(square, p)
	if r == nil {
		return ring.BOmega{}, false
	}
	sv.trg.Ensure()
	sv.trg.A.Set(r)
	sv.trg.B.SetInt64(0)
	sv.trg.C.SetInt64(0)
	sv.trg.D.SetInt64(0)
	sv.trg.SubTo(sv.trg, root)
	sv.tmp.SetBSqrt2(pi)
	eta := sv.st.GCD(sv.tmp, sv.trg)
	// η must be a proper divisor (not a unit, not an associate of π itself
	// when π splits).
	eta.NormZTo(&sv.n2, &sv.s)
	if sv.n2.CmpAbs(bigOne) == 0 {
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

// gcdZSqrt2To computes gcd(a, b) in Z[√2] into dst via the Euclidean
// algorithm with coefficient-rounding division (always norm-reducing in
// Z[√2]), reusing the Solver's rotation slots.
func (sv *Solver) gcdZSqrt2To(dst *ring.BSqrt2, a, b ring.BSqrt2) {
	sv.ga.Set(a)
	sv.gb.Set(b)
	for !sv.gb.IsZero() {
		sv.euclidZSqrt2(sv.ga, sv.gb)
		sv.ga, sv.gb, sv.gr = sv.gb, sv.gr, sv.ga
	}
	dst.Set(sv.ga)
}

// euclidZSqrt2 computes q, r with a = q·b + r and |N(r)| < |N(b)| into
// sv.gq and sv.gr.
func (sv *Solver) euclidZSqrt2(a, b ring.BSqrt2) {
	b.NormZTo(&sv.gn, &sv.s) // may be negative
	sv.gbt.BulletTo(b)
	sv.gnum.MulTo(a, sv.gbt, &sv.s)
	sv.gq.Ensure()
	ring.RoundQuoTo(sv.gq.A, sv.gnum.A, &sv.gn, &sv.e1, &sv.e2)
	ring.RoundQuoTo(sv.gq.B, sv.gnum.B, &sv.gn, &sv.e1, &sv.e2)
	sv.gbt.MulTo(sv.gq, b, &sv.s)
	sv.gr.SubTo(a, sv.gbt)
}
