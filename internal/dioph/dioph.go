// Package dioph solves the norm equation t·t† = ξ over Z[ω] for totally
// positive ξ ∈ Z[√2] — the Diophantine step of Ross–Selinger gridsynth.
//
// Strategy (the standard one): factor the rational norm N(ξ) = ξ·ξ•
// (trial division + Pollard–Brent rho with a budget), split each rational
// prime according to its class mod 8 using square roots mod p and
// Euclidean gcds in Z[√2] and Z[ω], assemble t from the prime pieces, fix
// the leftover unit λ^{2s}, and verify t·t† = ξ exactly. A failed
// factorization or verification returns ok=false and the caller simply
// moves to the next grid candidate (standard gridsynth practice;
// completeness is heuristic, soundness is exact).
//
// Every step runs in machine words (word.go, wordfactor.go): int64
// coefficients with 128-bit products. Solve first rejects, by a residue
// test, ξ whose norm has an odd valuation at a small prime ≡ 7 (mod 8).
// It refuses (ok=false) a ξ with a coefficient at or past 2^62 or a norm
// at or past 2^31, and one whose values would leave the word range
// midway, as it refuses one whose factoring exceeds the rho budget.
// gridsynth does not meet a refused ξ in practice: at its maxK = 57 an
// admitted ξ has coefficients of at most 2^57, and its searches, floored
// near ε = 1e-7 by the acceptance bound's slack, have formed no norm
// reaching 2^31 at any ε measured (DESIGN.md). Were one refused, the
// search would take the next candidate. The big.Int solver the word path
// was built from stays in this package's tests as the reference its
// answers are checked against.
//
// The Solver type carries the square-root memo and factor buffer across
// a search, so Solve allocates only when they grow.
package dioph

import "repro/internal/ring"

// maxRhoIter bounds Pollard rho work per composite.
const maxRhoIter = 1 << 17

// prefilterPrimes are the small rational primes p ≡ 7 (mod 8). Such p
// split in Z[√2] into π·π•, and both π-exponents of ξ must be even for
// t·t† = ξ to be solvable (π is inert in Z[ω]); an odd valuation
// v_p(N(ξ)) = e_π + e_π• certifies unsolvability before any factoring.
var prefilterPrimes = [...]int64{7, 23, 31, 47, 71, 79, 103, 127, 151, 167,
	191, 199, 223, 239, 263, 271, 311, 359, 367, 383}

// sqrtKey keys the square-root memo.
type sqrtKey struct {
	square int8
	p      int64
}

// Solver carries Solve's state across a candidate search: the per-prime
// square-root memo and the factorization buffer. One Solver serves a
// whole search (it is reused across Solve calls); it is not safe for
// concurrent use.
type Solver struct {
	roots  map[sqrtKey]wordRoot
	powers []wordPower
}

// NewSolver returns a Solver ready for a candidate search.
func NewSolver() *Solver {
	return &Solver{roots: make(map[sqrtKey]wordRoot, 16)}
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

// Solve returns t with t·t† = ξ, or ok=false if ξ is not expressible, the
// factoring budget was exceeded, or ξ lies past the word bounds or leaves
// them midway (see the package comment). Wherever it answers, its answer
// is the big.Int reference's in this package's tests.
func (sv *Solver) Solve(xi ring.ZSqrt2) (ring.ZOmega, bool) {
	t, out := sv.solveWord(xi)
	return t, out == solved
}
