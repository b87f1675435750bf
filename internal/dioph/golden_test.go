package dioph

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/ring"
)

// goldenSolveHash is the sha256 of the reference's answers on goldenXis,
// one line per ξ: "a b: t.A t.B t.C t.D", or "a b: none" when it reports
// no solution. A change that moves any answer, including which associate
// of t comes back, shows here.
const goldenSolveHash = "30851e7e3cc816b971769c32a92885a3ee7857a79bca83b2267e482b2b2819c4"

// goldenEdgeCases are the hand-picked ξ = a + b√2 of the golden set. The
// classes named are those of the rational primes p dividing N(ξ).
var goldenEdgeCases = [][2]int64{
	{0, 0},  // ξ = 0: t = 0
	{1, 0},  // ξ = 1: t = 1
	{3, 2},  // λ² = 3 + 2√2, a unit: t = λ
	{-3, 0}, // negative
	{1, 1},  // λ: ξ• = 1 − √2 < 0
	{1, -1}, // 1 − √2 < 0
	// One prime of each class mod 8.
	{17, 0},                // p ≡ 1: 17 splits in Z[√2] and again in Z[ω]
	{3, 0},                 // p ≡ 3: inert in Z[√2], split by i√2 in Z[ω]
	{5, 0},                 // p ≡ 5: inert in Z[√2], split by i in Z[ω]
	{49, 0},                // p ≡ 7 at even valuation: t = 7
	{16417, 0}, {16421, 0}, // p ≡ 1 and 5 above the trial-division primes
	{16447 * 16447, 0}, // p ≡ 7 squared above the trial-division primes
	// A prime ≡ 7 (mod 8) at odd valuation: unsolvable.
	{7, 0},    // v = 1 at both primes above 7
	{3, 1},    // N = 7: the residue pre-filter rejects it
	{23, 7},   // N = 431, a prime ≡ 7 the pre-filter does not list
	{153, 59}, // N = 16447, found by factoring
	// N(ξ) = p·q with p, q > 2^14, so Pollard rho splits it.
	{145*139 + 2*48*38, 145*38 + 48*139},   // (145+48√2)(139+38√2): N = 16417·16433, both ≡ 1
	{153*163 + 2*59*71, 153*71 + 59*163},   // (153+59√2)(163+71√2): N = 16447·16487, both ≡ 7
	{217*295 + 2*18*136, 217*136 + 18*295}, // (217+18√2)(295+136√2): N = 46441·50033, both ≡ 1
	// Perfect squares above the trial-division primes.
	{16411, 0},         // N = 16411², p ≡ 3
	{16421 * 16421, 0}, // N = 16421⁴: the square of a square
	// ξ carrying √2 factors.
	{2, 0},        // t = √2
	{2, 1},        // √2·λ = δ·δ† with δ = 1 + ω
	{160, 0},      // 2⁵·5
	{10, 7},       // (2 + √2)·λ²
	{17 << 20, 0}, // 2²⁰·17
	// Norms on either side of 2^31.
	{62787, 29956}, // N = 2147483497, a prime ≡ 1 below 2^31
	{50339, 13902}, // N = 2147483713, a prime ≡ 1 above 2^31
}

// goldenXis returns the golden set: the edge cases, then ξ = t·t† for t
// whose coefficients lie below 2^18, then unsolvable ξ of the same sizes,
// then a few ξ whose norms lie far above gridsynth's.
//
// gridsynth's ξ = 2^k − |u|² has coefficients of up to 37 bits but a norm
// below 2^31 at ε ≥ 1e-10: its two embeddings differ by about 2^k. So t
// is drawn as a short element s times λ^{±m}, which keeps N(t·t†) =
// N(s·s†) small while the coefficients grow.
func goldenXis() []ring.ZSqrt2 {
	var out []ring.ZSqrt2
	for _, e := range goldenEdgeCases {
		out = append(out, ring.ZSqrt2{A: e[0], B: e[1]})
	}
	rng := rand.New(rand.NewSource(11))
	lambda := ring.Lambda.ToZOmega()
	lambdaInv := ring.LambdaInv.ToZOmega()
	skewed := func() ring.ZOmega {
		r := [...]int64{3, 15, 63, 127}[rng.Intn(4)]
		for {
			s := ring.ZOmega{
				A: rng.Int63n(2*r+1) - r, B: rng.Int63n(2*r+1) - r,
				C: rng.Int63n(2*r+1) - r, D: rng.Int63n(2*r+1) - r,
			}
			if s.IsZero() {
				continue
			}
			unit := lambda
			if rng.Intn(2) == 0 {
				unit = lambdaInv
			}
			for m := rng.Intn(14); m > 0; m-- {
				next := s.Mul(unit)
				if !below(next, 1<<18) {
					break
				}
				s = next
			}
			return s
		}
	}
	for i := 0; i < 300; i++ {
		out = append(out, skewed().Norm2())
	}
	// Unsolvable: an odd valuation at a prime over p ≡ 7 (mod 8), a
	// totally positive factor of norm 7, 23, 431 or 16447.
	odd := []ring.ZSqrt2{{A: 3, B: 1}, {A: 5, B: 1}, {A: 23, B: 7}, {A: 153, B: 59}}
	for i := 0; i < 120; i++ {
		out = append(out, skewed().Norm2().Mul(odd[i%len(odd)]))
	}
	// ξ = t·t† nudged off the norm form, kept non-negative in both
	// embeddings where a float check says so: solvable or not.
	for i := 0; i < 60; i++ {
		xi := skewed().Norm2()
		xi.B += rng.Int63n(7) - 3
		if xi.Float() < 0 || xi.Bullet().Float() < 0 {
			xi.B = 0
		}
		out = append(out, xi)
	}
	// Balanced t: N(t·t†) near 2^40, far above gridsynth's norms.
	for i := 0; i < 20; i++ {
		t := ring.ZOmega{A: rng.Int63n(1 << 9), B: rng.Int63n(1 << 9), C: rng.Int63n(1 << 9), D: rng.Int63n(1 << 9)}
		out = append(out, t.Norm2())
	}
	return out
}

// belowNormLimit reports whether |N(ξ)| < 2^31, the norms gridsynth's ξ
// reach and the word path's bound.
func belowNormLimit(xi ring.ZSqrt2) bool {
	return new(big.Int).Abs(ring.BSqrt2FromZSqrt2(xi).NormZ()).Cmp(big.NewInt(wordNormLimit)) < 0
}

// below reports whether every coefficient of z has magnitude below lim.
func below(z ring.ZOmega, lim int64) bool {
	for _, c := range [4]int64{z.A, z.B, z.C, z.D} {
		if c <= -lim || c >= lim {
			return false
		}
	}
	return true
}

// TestSolveGolden pins the reference's answer on every ξ of goldenXis and
// checks that every t it returns satisfies t·t† = ξ. Solve, through one
// Solver as gridsynth uses it, must refuse every ξ past the norm bound and
// give the reference's answer on every other.
func TestSolveGolden(t *testing.T) {
	xis := goldenXis()
	h := sha256.New()
	sv := NewSolver()
	solved, above, lost := 0, 0, 0
	for _, xi := range xis {
		want, ok := solveBig(ring.BSqrt2FromZSqrt2(xi))
		got, okGot := sv.Solve(xi)
		if !belowNormLimit(xi) {
			above++
			if okGot {
				t.Fatalf("ξ = %v is past the norm bound, but Solve returned t = %v", xi, got)
			}
			if ok {
				lost++
			}
		} else if okGot != ok || ok && !ring.BOmegaFromZOmega(got).Equal(want) {
			t.Fatalf("ξ = %v: Solve = %v, %v; reference %v, %v", xi, got, okGot, want, ok)
		}
		if !ok {
			fmt.Fprintf(h, "%v %v: none\n", xi.A, xi.B)
			continue
		}
		solved++
		if !want.Norm2().Equal(ring.BSqrt2FromZSqrt2(xi)) {
			t.Fatalf("ξ = %v: t = %v does not verify (t·t† = %v)", xi, want, want.Norm2())
		}
		fmt.Fprintf(h, "%v %v: %v %v %v %v\n", xi.A, xi.B, want.A, want.B, want.C, want.D)
	}
	t.Logf("%d ξ, %d solved by the reference; Solve refuses the %d past the norm bound, %d of them solvable",
		len(xis), solved, above, lost)
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSolveHash {
		t.Errorf("answers hash %s, recorded %s", got, goldenSolveHash)
	}
}
