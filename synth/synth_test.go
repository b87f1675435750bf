package synth

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gates"
	"repro/internal/qmat"
)

// TestRegistrySemantics: built-ins present, duplicate names rejected,
// first registration wins, empty/nil rejected.
func TestRegistrySemantics(t *testing.T) {
	for _, name := range []string{"trasyn", "gridsynth", "sk", "anneal", "auto"} {
		if _, ok := Lookup(name); !ok {
			t.Fatalf("built-in backend %q not registered", name)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup of unknown name succeeded")
	}
	if err := Register("trasyn", trasynBackend{}); err == nil {
		t.Fatal("duplicate Register succeeded")
	}
	if err := Register("", trasynBackend{}); err == nil {
		t.Fatal("empty-name Register succeeded")
	}
	if err := Register("nilbackend", nil); err == nil {
		t.Fatal("nil-backend Register succeeded")
	}
	if err := Register("custom-test-backend", trasynBackend{}); err != nil {
		t.Fatalf("fresh Register failed: %v", err)
	}
	found := false
	for _, n := range List() {
		if n == "custom-test-backend" {
			found = true
		}
	}
	if !found {
		t.Fatal("List does not include freshly registered backend")
	}
}

// TestSeedZeroReachable: Seed(0) is a real seed (matching core with
// source 0), and a nil Seed selects the deterministic DefaultSeed
// (matching core with source 1), never the clock.
func TestSeedZeroReachable(t *testing.T) {
	u := qmat.HaarRandom(rand.New(rand.NewSource(8)))
	req := Request{TBudget: 5, Tensors: 2, Samples: 600}
	be, _ := Lookup("trasyn")

	coreRun := func(seed int64) core.Result {
		cfg := core.DefaultConfig(gates.Shared(5), 5, 2, 600)
		cfg.Rng = rand.New(rand.NewSource(seed))
		return core.TRASYN(u, cfg)
	}
	zero := req
	zero.Seed = Seed(0)
	got, err := be.Synthesize(context.Background(), u, zero)
	if err != nil {
		t.Fatal(err)
	}
	if want := coreRun(0); got.Seq.String() != want.Seq.String() {
		t.Fatalf("Seed(0) did not reach seed 0: got %v want %v", got.Seq, want.Seq)
	}
	unset, err := be.Synthesize(context.Background(), u, req)
	if err != nil {
		t.Fatal(err)
	}
	if want := coreRun(DefaultSeed); unset.Seq.String() != want.Seq.String() {
		t.Fatalf("nil Seed is not DefaultSeed: got %v want %v", unset.Seq, want.Seq)
	}
	again, err := be.Synthesize(context.Background(), u, zero)
	if err != nil {
		t.Fatal(err)
	}
	if again.Seq.String() != got.Seq.String() {
		t.Fatal("same request not deterministic")
	}
}

// TestCrossBackendResultConsistency: every backend's Result metadata must
// agree with its own sequence, and Error must be the realized distance.
func TestCrossBackendResultConsistency(t *testing.T) {
	target := qmat.Rz(0.731)
	ctx := context.Background()
	for _, name := range []string{"trasyn", "gridsynth", "sk", "anneal", "auto"} {
		be, _ := Lookup(name)
		req := Request{Epsilon: 0.05, Samples: 800}
		if name == "anneal" {
			req.Timeout = 300 * time.Millisecond
			req.Seed = Seed(2)
		}
		res, err := be.Synthesize(ctx, target, req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Seq == nil {
			t.Fatalf("%s: nil sequence", name)
		}
		if res.TCount != res.Seq.TCount() {
			t.Fatalf("%s: TCount %d != Seq.TCount() %d", name, res.TCount, res.Seq.TCount())
		}
		if res.Clifford != res.Seq.CliffordCount() {
			t.Fatalf("%s: Clifford %d != Seq.CliffordCount() %d", name, res.Clifford, res.Seq.CliffordCount())
		}
		if d := qmat.Distance(target, res.Seq.Matrix()); math.Abs(d-res.Error) > 1e-6 {
			t.Fatalf("%s: reported error %v but realized %v", name, res.Error, d)
		}
		if res.Backend == "" {
			t.Fatalf("%s: empty Backend name", name)
		}
		if res.Wall < 0 {
			t.Fatalf("%s: negative wall time", name)
		}
	}
}

// TestAutoPicksLowerTCount: the racing backend must return a result at
// least as good (in T count at met epsilon, or in error) as gridsynth
// alone under the same epsilon.
func TestAutoPicksLowerTCount(t *testing.T) {
	u := qmat.HaarRandom(rand.New(rand.NewSource(12)))
	ctx := context.Background()
	eps := 1e-2
	auto, _ := Lookup("auto")
	gs, _ := Lookup("gridsynth")
	ares, err := auto.Synthesize(ctx, u, Request{Epsilon: eps, Samples: 1500})
	if err != nil {
		t.Fatal(err)
	}
	gres, err := gs.Synthesize(ctx, u, Request{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	if ares.Error <= eps && gres.Error <= eps && ares.TCount > gres.TCount {
		t.Fatalf("auto (T=%d) worse than gridsynth alone (T=%d)", ares.TCount, gres.TCount)
	}
	if ares.Backend != "trasyn" && ares.Backend != "gridsynth" {
		t.Fatalf("auto winner has unexpected backend %q", ares.Backend)
	}
}

// TestBackendCancellation: a canceled context aborts synthesis promptly.
func TestBackendCancellation(t *testing.T) {
	u := qmat.HaarRandom(rand.New(rand.NewSource(13)))
	for _, name := range []string{"trasyn", "gridsynth", "anneal"} {
		be, _ := Lookup(name)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		start := time.Now()
		// Huge work sizes: only cancellation can return this fast.
		_, err := be.Synthesize(ctx, u, Request{Epsilon: 1e-9, Samples: 1 << 20, Tensors: 12})
		if err == nil && name != "anneal" {
			t.Fatalf("%s: no error from pre-canceled context", name)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("%s: cancellation took %s", name, elapsed)
		}
	}
}
