package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/gates"
	"repro/internal/qmat"
)

func testConfig(t *testing.T, m, sites, k int) Config {
	t.Helper()
	cfg := DefaultConfig(gates.Shared(min(m, 6)), min(m, 6), sites, k)
	cfg.Rng = rand.New(rand.NewSource(42))
	return cfg
}

// TestSequenceMatchesError: the returned sequence's product must realize the
// reported error (the "error for free" property of the MPS must agree with
// an independent numeric evaluation).
func TestSequenceMatchesError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := testConfig(t, 6, 2, 2000)
	for i := 0; i < 10; i++ {
		u := qmat.HaarRandom(rng)
		res := Synthesize(u, cfg)
		if res.Seq == nil {
			t.Fatal("no sequence returned")
		}
		d := qmat.Distance(u, res.Seq.Matrix())
		if math.Abs(d-res.Error) > 1e-6 {
			t.Fatalf("reported error %v but sequence realizes %v", res.Error, d)
		}
		if res.Seq.TCount() != res.TCount || res.Seq.CliffordCount() != res.Clifford {
			t.Fatal("cost metadata does not match sequence")
		}
	}
}

// TestSingleSiteIsOptimal: with one tensor, trasyn is an exact lookup table
// (§4.1), so it must return the true argmax over the enumeration.
func TestSingleSiteIsOptimal(t *testing.T) {
	tab := gates.Shared(4)
	cfg := DefaultConfig(tab, 4, 1, 100)
	cfg.Rng = rand.New(rand.NewSource(2))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5; i++ {
		u := qmat.HaarRandom(rng)
		res := Synthesize(u, cfg)
		// Brute-force best.
		best := math.Inf(1)
		for _, e := range tab.Collect(0, 4) {
			if d := qmat.Distance(u, e.M); d < best {
				best = d
			}
		}
		if math.Abs(res.Error-best) > 1e-9 {
			t.Fatalf("single-site result %v worse than brute force %v", res.Error, best)
		}
	}
}

// TestExactTargetIsFound: a target that IS a Clifford+T operator must be
// synthesized with (near-)zero error and no more T gates than it needs.
func TestExactTargetIsFound(t *testing.T) {
	tab := gates.Shared(5)
	cfg := DefaultConfig(tab, 5, 1, 100)
	cfg.Rng = rand.New(rand.NewSource(4))
	target := gates.Sequence{T, gates.H, gates.T, gates.S, gates.H, gates.T}
	u := target.Matrix()
	res := Synthesize(u, cfg)
	if res.Error > 1e-7 {
		t.Fatalf("exact target not found: err=%v", res.Error)
	}
	if res.TCount > target.TCount() {
		t.Fatalf("found T=%d, target needs ≤ %d", res.TCount, target.TCount())
	}
}

// T gate alias for test readability.
const T = gates.T

// TestMoreSitesReachLowerError: error should improve (or at least not
// regress) as the T budget grows — the paper's scaling claim at small size.
func TestMoreSitesReachLowerError(t *testing.T) {
	tab := gates.Shared(5)
	rng := rand.New(rand.NewSource(5))
	worse, total := 0, 0
	for i := 0; i < 8; i++ {
		u := qmat.HaarRandom(rng)
		cfg1 := DefaultConfig(tab, 5, 1, 4000)
		cfg1.Rng = rand.New(rand.NewSource(int64(i)))
		r1 := Synthesize(u, cfg1)
		cfg2 := DefaultConfig(tab, 5, 2, 4000)
		cfg2.Rng = rand.New(rand.NewSource(int64(i)))
		cfg2.KeepBest = 64
		r2 := Synthesize(u, cfg2)
		total++
		if r2.Error > r1.Error*1.05 {
			worse++
		}
	}
	if worse > total/2 {
		t.Fatalf("two sites worse than one in %d/%d cases", worse, total)
	}
}

// TestTRASYNRespectsEpsilon: Algorithm 1 in Eq. (4) mode stops at the first
// budget prefix that satisfies the threshold.
func TestTRASYNRespectsEpsilon(t *testing.T) {
	tab := gates.Shared(6)
	cfg := DefaultConfig(tab, 6, 3, 3000)
	cfg.Rng = rand.New(rand.NewSource(6))
	cfg.Epsilon = 0.05
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5; i++ {
		u := qmat.HaarRandom(rng)
		res := TRASYN(u, cfg)
		if res.Error >= cfg.Epsilon {
			t.Fatalf("TRASYN missed epsilon: %v ≥ %v", res.Error, cfg.Epsilon)
		}
	}
}

// TestBeamMode: deterministic beam search must work end to end and be
// reproducible.
func TestBeamMode(t *testing.T) {
	tab := gates.Shared(5)
	cfg := DefaultConfig(tab, 5, 2, 0)
	cfg.UseBeam = true
	cfg.BeamWidth = 64
	u := qmat.HaarRandom(rand.New(rand.NewSource(8)))
	r1 := Synthesize(u, cfg)
	r2 := Synthesize(u, cfg)
	if r1.Error != r2.Error || r1.Seq.String() != r2.Seq.String() {
		t.Fatal("beam mode not deterministic")
	}
	if d := qmat.Distance(u, r1.Seq.Matrix()); math.Abs(d-r1.Error) > 1e-6 {
		t.Fatal("beam sequence does not realize reported error")
	}
}

// TestRewritePreservesOperator: step 3 must preserve the product up to
// global phase while never increasing (T, Clifford) cost.
func TestRewritePreservesOperator(t *testing.T) {
	tab := gates.Shared(5)
	rng := rand.New(rand.NewSource(9))
	alphabet := []gates.Gate{gates.X, gates.Z, gates.H, gates.S, gates.Sdg, gates.T, gates.Tdg}
	for trial := 0; trial < 100; trial++ {
		var seq gates.Sequence
		n := 5 + rng.Intn(25)
		for i := 0; i < n; i++ {
			seq = append(seq, alphabet[rng.Intn(len(alphabet))])
		}
		rw := Rewrite(seq, tab)
		if d := qmat.Distance(seq.Matrix(), rw.Matrix()); d > 1e-7 {
			t.Fatalf("rewrite changed the operator: d=%v\n in: %v\nout: %v", d, seq, rw)
		}
		if rw.TCount() > seq.TCount() {
			t.Fatalf("rewrite increased T count: %d → %d", seq.TCount(), rw.TCount())
		}
	}
}

// TestRewriteReducesRedundancy: classic redundant patterns must collapse.
func TestRewriteReducesRedundancy(t *testing.T) {
	tab := gates.Shared(5)
	cases := []struct {
		in   gates.Sequence
		maxT int
	}{
		{gates.Sequence{T, gates.Tdg}, 0},
		{gates.Sequence{T, T}, 0},                               // = S
		{gates.Sequence{gates.H, gates.H, T, T, T, T}, 0},       // = Z
		{gates.Sequence{T, gates.H, gates.H, T}, 1},             // = S up to H² = I
		{gates.Sequence{gates.S, gates.S, gates.S, gates.S}, 0}, // = I
	}
	for _, c := range cases {
		rw := Rewrite(c.in, tab)
		if rw.TCount() > c.maxT {
			t.Errorf("Rewrite(%v) kept %d T gates, want ≤ %d (got %v)", c.in, rw.TCount(), c.maxT, rw)
		}
	}
}

// TestConfigValidation: missing required fields must panic loudly.
func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for missing table")
		}
	}()
	Synthesize(qmat.I2(), Config{Budgets: []int{3}})
}

// TestCancelInsideAttempt: Config.Cancel stops an attempt mid-sample. A
// four-site attempt over 200000 samples takes seconds; canceled after
// 5 ms it must return at once, with nothing, since no sample finished.
func TestCancelInsideAttempt(t *testing.T) {
	cfg := DefaultConfig(gates.Shared(5), 5, 4, 200000)
	cancel := make(chan struct{})
	cfg.Cancel = cancel
	time.AfterFunc(5*time.Millisecond, func() { close(cancel) })
	start := time.Now()
	res := Synthesize(qmat.HaarRandom(rand.New(rand.NewSource(14))), cfg)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("canceled attempt returned after %v", elapsed)
	}
	if res.Seq != nil || res.Evals != 0 {
		t.Fatalf("canceled attempt returned %v from %d samples", res.Seq, res.Evals)
	}
}

// TestCancelKeepsBestSoFar: TRASYN canceled inside a later attempt still
// returns the best result of the attempts it finished.
func TestCancelKeepsBestSoFar(t *testing.T) {
	u := qmat.HaarRandom(rand.New(rand.NewSource(15)))
	cfg := DefaultConfig(gates.Shared(5), 5, 4, 200000)
	one := cfg
	one.Budgets = cfg.Budgets[:1]
	start := time.Now()
	first := Synthesize(u, one)
	delay := 3*time.Since(start) + 10*time.Millisecond
	cancel := make(chan struct{})
	cfg.Cancel = cancel
	time.AfterFunc(delay, func() { close(cancel) })
	start = time.Now()
	res := TRASYN(u, cfg)
	if elapsed := time.Since(start); elapsed > delay+2*time.Second {
		t.Fatalf("canceled TRASYN returned after %v", elapsed)
	}
	if res.Seq == nil || res.Error > first.Error {
		t.Fatalf("canceled TRASYN returned %v (error %g), want at least the one-site attempt's error %g", res.Seq, res.Error, first.Error)
	}
}

func BenchmarkSynthesize2Sites(b *testing.B) {
	tab := gates.Shared(6)
	cfg := DefaultConfig(tab, 6, 2, 2000)
	cfg.Rng = rand.New(rand.NewSource(10))
	u := qmat.HaarRandom(rand.New(rand.NewSource(11)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Synthesize(u, cfg)
	}
}
