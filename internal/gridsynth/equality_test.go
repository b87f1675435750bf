package gridsynth

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/dioph"
	"repro/internal/ring"
)

// Seed-equality property: the norm equation's word path, with its
// residue pre-filter, must produce bit-identical gate sequences to the
// arbitrary-precision reference path — same gates in the same order, same
// T count, same denominator exponent k, same error bits — for fixed seeds
// across the benchmark ε ladder. The reference, dioph's big.Int solver in
// dioph's tests, is pinned here by its answers in pinsFile, recorded
// while both paths ran side by side and agreed.

// pinsFile holds the reference path's answers, keyed by test name: each
// seed-equality tier's Rz results and TestPreFilterNeverLies's verdicts.
// A test whose key is missing records its answers and fails, so a pin
// cannot pass unchecked.
const pinsFile = "testdata/reference_pins.json"

// pinnedRz is one pinned Rz result. The angle and the error are stored as
// the hex of their IEEE-754 bits, so they compare exactly.
type pinnedRz struct {
	Theta    string  `json:"theta"`
	Eps      float64 `json:"eps"`
	K        int     `json:"k"`
	T        int     `json:"t"`
	Clifford int     `json:"clifford"`
	Error    string  `json:"error"`
	Seq      string  `json:"seq"`
}

// pinnedVerdict is whether the norm equation t·t† = a + b√2 is solvable.
type pinnedVerdict struct {
	A  int64 `json:"a"`
	B  int64 `json:"b"`
	OK bool  `json:"ok"`
}

// checkPinned compares got, in order, with the answers pinned under
// t.Name() in pinsFile; when there are none, it records got and fails.
func checkPinned[E comparable](t *testing.T, got []E) {
	t.Helper()
	pins := map[string]json.RawMessage{}
	data, err := os.ReadFile(pinsFile)
	if err == nil {
		err = json.Unmarshal(data, &pins)
	}
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	raw, ok := pins[t.Name()]
	if !ok {
		if pins[t.Name()], err = json.Marshal(got); err == nil {
			data, err = json.MarshalIndent(pins, "", "\t")
		}
		if err == nil {
			err = os.WriteFile(pinsFile, append(data, '\n'), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %d answers under %s in %s; run again to check against them", len(got), t.Name(), pinsFile)
	}
	var want []E
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d answers, %d pinned", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("answer %d: got %+v, pinned %+v", i, got[i], want[i])
		}
	}
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
	pins := make([]pinnedRz, len(angles))
	for i, theta := range angles {
		r, err := Rz(theta, eps, Options{})
		if err != nil {
			t.Fatalf("Rz(%v, %v): %v", theta, eps, err)
		}
		pins[i] = pinnedRz{Theta: hexBits(theta), Eps: eps, K: r.K, T: r.TCount,
			Clifford: r.Clifford, Error: hexBits(r.Error), Seq: r.Seq.String()}
	}
	checkPinned(t, pins)
}

func TestSeedEquality1e2(t *testing.T) { runEquality(t, 1e-2, equalityAngles(11, 8)) }

func TestSeedEquality1e4(t *testing.T) { runEquality(t, 1e-4, equalityAngles(12, 4)) }

func TestSeedEquality1e6(t *testing.T) { runEquality(t, 1e-6, equalityAngles(13, 4)) }

// TestPreFilterNeverLies proves the residue pre-filter is a pure
// optimization: filtering never changes a verdict. Solve, which filters,
// must agree with the unfiltered big.Int reference's verdicts, pinned in
// pinsFile, on every ξ. (Acceptance by the filter decides nothing — the
// solver still runs — so agreement is exactly the soundness claim.) Two
// input families: random small ξ, every one with a
// norm below the word path's 2^31 so it reaches the filter, and crafted ξ
// with odd valuation v_p(N(ξ)) at EVERY small prime p ≡ 7 (mod 8) the
// filter tests (the documented reject condition).
func TestPreFilterNeverLies(t *testing.T) {
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
	var verdicts []pinnedVerdict
	check := func(xi ring.ZSqrt2) {
		t.Helper()
		_, ok := dioph.NewSolver().Solve(xi)
		verdicts = append(verdicts, pinnedVerdict{A: xi.A, B: xi.B, OK: ok})
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
	checkPinned(t, verdicts)
}
