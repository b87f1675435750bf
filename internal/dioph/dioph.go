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
// ξ and t are int64-coefficient ring elements. A ξ with coefficients
// below 2^62 and norm below 2^31, as every ξ gridsynth produces down to
// ε = 1e-10 has, is solved in machine words (word.go): the same steps in
// the same order, on int64 coefficients with 128-bit products, returning
// the same t. It first rejects, by a residue test, ξ whose norm has an
// odd valuation at a small prime ≡ 7 (mod 8). Any other ξ is lifted to
// the big.Int path, a plain value-semantics reference that the word path
// is tested against, and its t narrowed back.
//
// The Solver type carries the word path's square-root memo and factor
// buffer across a search, so the word path allocates only when they grow.
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
	deltaOmega = ring.NewBOmega(1, 1, 0, 0) // δ = 1 + ω, with δ·δ† = √2·λ
	rootI      = ring.NewBOmega(0, 0, 1, 0) // ω² = i,      i² = −1
	rootISqrt2 = ring.NewBOmega(0, 1, 0, 1) // ω + ω³ = i√2, (i√2)² = −2
)

// fastPath gates the word path (word.go). It exists so the equality tests
// can run the big.Int reference; production code never turns it off.
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

// sqrtKey keys the word path's square-root memo.
type sqrtKey struct {
	square int8
	p      int64
}

// Solver carries the word path's state across a candidate search: the
// per-prime square-root memo and the factorization buffer. One Solver
// serves a whole search (it is reused across Solve calls); it is not safe
// for concurrent use.
type Solver struct {
	roots  map[sqrtKey]wordRoot
	powers []wordPower
}

// NewSolver returns a Solver ready for a candidate search.
func NewSolver() *Solver {
	return &Solver{roots: make(map[sqrtKey]wordRoot, 16)}
}

// mod8 returns p mod 8 without allocating (p > 0).
func mod8(p *big.Int) int64 {
	return int64(p.Bit(0)) | int64(p.Bit(1))<<1 | int64(p.Bit(2))<<2
}

// preFilter64 reports whether 0 < v < 2^63, the norm |N(ξ)|, passes the
// cheap necessary condition (true = may be solvable): no odd valuation at
// a prime of prefilterPrimes. The full solver rejects any ξ that fails it
// after factoring, so filtering first only saves work and cannot change
// the result.
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
// the factoring budget was exceeded). ξ whose coefficients and norm fit
// the word path (word.go) is solved in machine words, and any other in
// big.Int; both return the same answer. The big path's t always fits
// int64: the sum of its squared coefficients is ξ's rational part, which
// is below 2^63.
func (sv *Solver) Solve(xi ring.ZSqrt2) (ring.ZOmega, bool) {
	if fastPath {
		switch t, out := sv.solveWord(xi); out {
		case solved:
			return t, true
		case noSolution:
			return ring.ZOmega{}, false
		}
	}
	t, ok := sv.solveBig(ring.BSqrt2FromZSqrt2(xi))
	if !ok {
		return ring.ZOmega{}, false
	}
	return t.ToZOmega()
}

// solveBig is Solve in big.Int arithmetic on values: the reference the
// word path is tested against, and the path for ξ past its bounds. It
// keeps no state in the Solver.
func (*Solver) solveBig(xi ring.BSqrt2) (ring.BOmega, bool) {
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
