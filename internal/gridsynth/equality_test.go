package gridsynth

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dioph"
	"repro/internal/ring"
)

// Seed-equality property: the optimized hot path (the norm equation's
// word path with its residue pre-filter) must produce bit-identical gate
// sequences to the arbitrary-precision reference path — same gates in the
// same order, same T count, same denominator exponent k — for fixed seeds
// across the benchmark ε ladder. This is the acceptance gate that lets
// the perf work claim "no output change".

// withReferencePaths runs f with the norm equation's word path disabled,
// restoring the production configuration afterwards.
func withReferencePaths(t *testing.T, f func()) {
	t.Helper()
	defer dioph.SetFastPath(dioph.SetFastPath(false))
	f()
}

func sequencesEqual(a, b []Result) (int, bool) {
	for i := range a {
		if len(a[i].Seq) != len(b[i].Seq) {
			return i, false
		}
		for j := range a[i].Seq {
			if a[i].Seq[j] != b[i].Seq[j] {
				return i, false
			}
		}
		if a[i].TCount != b[i].TCount || a[i].Clifford != b[i].Clifford ||
			a[i].K != b[i].K || a[i].Error != b[i].Error {
			return i, false
		}
	}
	return 0, true
}

// equalityAngles returns the fixed angle set for one ε tier: a seeded
// spread plus the five angles BenchmarkRz and TestAllocBudget cycle
// through, so the equality claim covers what they measure.
func equalityAngles(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	angles := make([]float64, 0, n+5)
	for i := 0; i < n; i++ {
		angles = append(angles, rng.Float64()*4*math.Pi-2*math.Pi)
	}
	for i := 0; i < 5; i++ {
		angles = append(angles, 1.0+float64(i)*0.21) // the bench ladder
	}
	return angles
}

func runEquality(t *testing.T, eps float64, angles []float64) {
	t.Helper()
	fast := make([]Result, len(angles))
	for i, theta := range angles {
		r, err := Rz(theta, eps, Options{})
		if err != nil {
			t.Fatalf("fast Rz(%v, %v): %v", theta, eps, err)
		}
		fast[i] = r
	}
	ref := make([]Result, len(angles))
	withReferencePaths(t, func() {
		for i, theta := range angles {
			r, err := Rz(theta, eps, Options{})
			if err != nil {
				t.Fatalf("reference Rz(%v, %v): %v", theta, eps, err)
			}
			ref[i] = r
		}
	})
	if i, ok := sequencesEqual(fast, ref); !ok {
		t.Fatalf("eps=%v theta=%v: fast path diverged from reference:\nfast: k=%d t=%d err=%v %v\nref:  k=%d t=%d err=%v %v",
			eps, angles[i],
			fast[i].K, fast[i].TCount, fast[i].Error, fast[i].Seq,
			ref[i].K, ref[i].TCount, ref[i].Error, ref[i].Seq)
	}
}

func TestSeedEquality1e2(t *testing.T) { runEquality(t, 1e-2, equalityAngles(11, 8)) }

func TestSeedEquality1e4(t *testing.T) { runEquality(t, 1e-4, equalityAngles(12, 4)) }

func TestSeedEquality1e6(t *testing.T) { runEquality(t, 1e-6, equalityAngles(13, 4)) }

// TestPreFilterNeverLies proves the residue pre-filter is a pure
// optimization: filtering never changes a verdict. The filter runs only on
// the word path, so Solve with the word path on must agree with the
// unfiltered big.Int reference on every ξ. (Acceptance by the filter
// decides nothing — the solver still runs — so agreement is exactly the
// soundness claim.) Two input families: random small ξ, every one with a
// norm below the word path's 2^31 so it reaches the filter, and crafted ξ
// with odd valuation v_p(N(ξ)) at EVERY small prime p ≡ 7 (mod 8) the
// filter tests (the documented reject condition).
func TestPreFilterNeverLies(t *testing.T) {
	defer dioph.SetFastPath(dioph.SetFastPath(true))
	primes := []int64{7, 23, 31, 47, 71, 79, 103, 127, 151, 167,
		191, 199, 223, 239, 263, 271, 311, 359, 367, 383}
	// oddAt reports whether n has an odd valuation at some listed prime:
	// the filter's reject condition.
	oddAt := func(n int64) bool {
		for _, p := range primes {
			e := 0
			for ; n != 0 && n%p == 0; n /= p {
				e++
			}
			if e&1 == 1 {
				return true
			}
		}
		return false
	}
	check := func(xi ring.ZSqrt2) {
		t.Helper()
		dioph.SetFastPath(true)
		_, okFiltered := dioph.NewSolver().Solve(xi)
		dioph.SetFastPath(false)
		_, okFull := dioph.NewSolver().Solve(xi)
		if okFiltered != okFull {
			t.Fatalf("ξ=%v: filtered=%v full=%v", xi, okFiltered, okFull)
		}
	}
	rng := rand.New(rand.NewSource(99))
	rejected := 0
	for i := 0; i < 100; i++ {
		xi := ring.ZSqrt2{A: rng.Int63n(1 << 15), B: rng.Int63n(1 << 10)}
		n := xi.NormZ()
		if n <= -1<<31 || n >= 1<<31 {
			t.Fatalf("ξ=%v: |N(ξ)| = %d is not below 2^31, so ξ skips the filter", xi, n)
		}
		if xi.Sign() >= 0 && xi.Bullet().Sign() >= 0 && oddAt(n) {
			rejected++
		}
		check(xi)
	}
	t.Logf("the filter rejects %d of 100 random ξ", rejected)
	// Crafted odd-valuation inputs for each prefilter prime p: search small
	// totally positive a+b√2 with v_p(a²−2b²) odd (2 is a QR mod p for
	// p ≡ ±1 (mod 8), so solutions are dense).
	for _, p := range primes {
		found := false
	search:
		for a := p; a < p+6*p && !found; a++ {
			for b := int64(1); b*b*2 < a*a; b++ {
				n, e := a*a-2*b*b, 0
				for n%p == 0 {
					n, e = n/p, e+1
				}
				if e&1 == 0 {
					continue
				}
				check(ring.ZSqrt2{A: a, B: b})
				found = true
				break search
			}
		}
		if !found {
			t.Fatalf("no odd-valuation ξ found for p=%d", p)
		}
	}
}
