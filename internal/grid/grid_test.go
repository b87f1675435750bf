package grid

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/ring"
)

// SliverParams describes the candidate region for angle Theta, error Eps
// and denominator exponent K (admitting exactly the ε-sliver).
type SliverParams struct {
	Theta float64
	Eps   float64
	K     int
}

// SliverCandidates enumerates the candidates of p, stopping after limit
// of them (limit ≤ 0 means no limit).
func SliverCandidates(p SliverParams, limit int) []Candidate {
	var out []Candidate
	NewSliver(p.Theta, p.Eps, p.Eps).Scan(p.K, func(c Candidate) bool {
		out = append(out, c)
		return limit <= 0 || len(out) < limit
	})
	return out
}

// Solve1D returns all α = m + n√2 ∈ Z[√2] with α ∈ a and α• ∈ b.
// Rescaling by λ = 1+√2 balances the interval lengths first (λ·λ• = −1), so
// the scan is proportional to the expected number of solutions plus O(1).
func Solve1D(a, b Interval) []ring.ZSqrt2 {
	return appendSolve1D(nil, a, b, lambdaExp(a.Len(), b.Len()))
}

// bruteSolve1D enumerates solutions exhaustively for small intervals.
func bruteSolve1D(a, b Interval) []ring.ZSqrt2 {
	var out []ring.ZSqrt2
	nLo := int64(math.Floor((a.Lo - b.Hi) / (2 * ring.Sqrt2)))
	nHi := int64(math.Ceil((a.Hi - b.Lo) / (2 * ring.Sqrt2)))
	for n := nLo; n <= nHi; n++ {
		for m := int64(math.Floor(a.Lo - float64(n)*ring.Sqrt2)); m <= int64(math.Ceil(a.Hi-float64(n)*ring.Sqrt2)); m++ {
			x := ring.ZSqrt2{A: m, B: n}
			if f := x.Float(); f < a.Lo || f > a.Hi {
				continue
			}
			if f := x.Bullet().Float(); f < b.Lo || f > b.Hi {
				continue
			}
			out = append(out, x)
		}
	}
	return out
}

func TestSolve1DMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		a := Interval{rng.Float64()*20 - 10, 0}
		a.Hi = a.Lo + rng.Float64()*8
		b := Interval{rng.Float64()*20 - 10, 0}
		b.Hi = b.Lo + rng.Float64()*8
		got := Solve1D(a, b)
		want := bruteSolve1D(a, b)
		// Compare as sets (allow boundary fuzz: every brute solution must be
		// found; extra solutions must be within fuzz of the boundary).
		gotSet := map[ring.ZSqrt2]bool{}
		for _, x := range got {
			gotSet[x] = true
		}
		for _, x := range want {
			if !gotSet[x] {
				t.Fatalf("missing solution %v for a=%v b=%v", x, a, b)
			}
		}
		for _, x := range got {
			f, fb := x.Float(), x.Bullet().Float()
			if f < a.Lo-1e-6 || f > a.Hi+1e-6 || fb < b.Lo-1e-6 || fb > b.Hi+1e-6 {
				t.Fatalf("spurious solution %v for a=%v b=%v", x, a, b)
			}
		}
	}
}

// TestSolve1DUnbalanced: λ-rescaling must handle very thin/long interval
// pairs without scanning forever.
func TestSolve1DUnbalanced(t *testing.T) {
	// a thin (~1e-4), b long (~1e4): area ~1 → expect O(1) solutions.
	a := Interval{1000.0, 1000.0001}
	b := Interval{-12000, 12000}
	sols := Solve1D(a, b)
	for _, x := range sols {
		f, fb := x.Float(), x.Bullet().Float()
		if f < a.Lo-1e-6 || f > a.Hi+1e-6 || fb < b.Lo-1e-3 || fb > b.Hi+1e-3 {
			t.Fatalf("solution %v outside intervals", x)
		}
	}
	// The reverse orientation.
	sols2 := Solve1D(b, a)
	for _, x := range sols2 {
		f, fb := x.Float(), x.Bullet().Float()
		if f < b.Lo-1e-3 || f > b.Hi+1e-3 || fb < a.Lo-1e-6 || fb > a.Hi+1e-6 {
			t.Fatalf("reverse solution %v outside intervals", x)
		}
	}
}

func TestSolve1DEmpty(t *testing.T) {
	if got := Solve1D(Interval{1, 0}, Interval{0, 1}); got != nil {
		t.Error("inverted interval should yield nil")
	}
	// Feasibly empty: α ∈ [0.4, 0.45] and α• ∈ [0.4, 0.45] has no solutions
	// (the only candidates with both embeddings tiny are 0 and ±small λ^j).
	got := Solve1D(Interval{0.4, 0.45}, Interval{0.4, 0.45})
	if len(got) != 0 {
		t.Errorf("expected no solutions, got %v", got)
	}
}

// TestSliverCandidatesValid: every returned u must lie in the sliver and
// have u• in the disk — exactly, checked through the ring embedding.
func TestSliverCandidatesValid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		theta := rng.Float64()*4*math.Pi - 2*math.Pi
		eps := math.Pow(10, -1-2*rng.Float64()) // 1e-1 … 1e-3
		k := 8 + rng.Intn(10)
		p := SliverParams{Theta: theta, Eps: eps, K: k}
		cands := SliverCandidates(p, 16)
		s := math.Pow(2, float64(k)/2)
		c := math.Sqrt(1 - eps*eps)
		for _, cand := range cands {
			z := cand.U.Complex()
			if cmplx.Abs(z) > s*(1+1e-8) {
				t.Fatalf("candidate outside disk: |z|=%v s=%v", cmplx.Abs(z), s)
			}
			re := real(z)*math.Cos(theta/2) - imag(z)*math.Sin(theta/2)
			if re < c*s-1e-6*s {
				t.Fatalf("candidate outside sliver: re=%v cs=%v", re, c*s)
			}
			zb := cand.U.Bullet().Complex()
			if cmplx.Abs(zb) > s*(1+1e-8) {
				t.Fatalf("bullet outside disk: %v > %v", cmplx.Abs(zb), s)
			}
		}
	}
}

// TestSliverCandidatesExist: for large enough k there must be candidates
// (4^k·ε³ ≫ 1 guarantees lattice points in the region).
func TestSliverCandidatesExist(t *testing.T) {
	for _, tc := range []struct {
		eps float64
		k   int
	}{
		{0.1, 8}, {0.03, 12}, {0.01, 16},
	} {
		found := false
		for _, theta := range []float64{0.3, 1.1, 2.7, -0.8} {
			cands := SliverCandidates(SliverParams{Theta: theta, Eps: tc.eps, K: tc.k}, 4)
			if len(cands) > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("no candidates at eps=%v k=%d for any test angle", tc.eps, tc.k)
		}
	}
}

// TestSliverExactAngle: θ = 0 must yield u = √2^k (the exact identity
// numerator) among candidates at any k, in particular k=0.
func TestSliverExactAngle(t *testing.T) {
	cands := SliverCandidates(SliverParams{Theta: 0, Eps: 1e-9, K: 0}, 0)
	foundOne := false
	for _, c := range cands {
		if c.U == ring.ZOmegaFromInt(1) {
			foundOne = true
		}
	}
	if !foundOne {
		t.Errorf("u=1 not found for θ=0, k=0: got %v", cands)
	}
}

func BenchmarkSliverCandidates(b *testing.B) {
	p := SliverParams{Theta: 1.234, Eps: 1e-3, K: 16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SliverCandidates(p, 8)
	}
}
