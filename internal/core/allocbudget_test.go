package core

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/gates"
	"repro/internal/qmat"
)

// TestAllocBudget is trasyn's allocation gate: TRASYN as the trasyn
// backend configures it by default must stay within the allocs/op
// ceilings in testdata/alloc_budget.json, on Haar targets at two ε and
// on axis rotations, whose lower rungs are often deferred (see TRASYN).
// Like gridsynth's gate it runs only when PERF_SMOKE=1 (the CI
// perf-smoke job), and not under -race, where counts are not comparable.
// testing.AllocsPerRun runs at GOMAXPROCS 1, so the count leaves out the
// sampler's worker goroutines.
func TestAllocBudget(t *testing.T) {
	if os.Getenv("PERF_SMOKE") != "1" {
		t.Skip("set PERF_SMOKE=1 to enforce the allocation budget")
	}
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	data, err := os.ReadFile("testdata/alloc_budget.json")
	if err != nil {
		t.Fatal(err)
	}
	var ceilings struct {
		Budgets map[string]float64 `json:"budgets"`
	}
	if err := json.Unmarshal(data, &ceilings); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	haar := make([]qmat.M2, 8)
	for i := range haar {
		haar[i] = qmat.HaarRandom(rng)
	}
	axis := make([]qmat.M2, 0, 8)
	for range 4 {
		axis = append(axis, qmat.Rz(2*math.Pi*rng.Float64()), qmat.Rx(2*math.Pi*rng.Float64()))
	}
	for _, tier := range []struct {
		name    string
		eps     float64
		targets []qmat.M2
	}{{"5e-2", 5e-2, haar}, {"2e-2", 2e-2, haar}, {"axis-2e-2", 2e-2, axis}} {
		budget, ok := ceilings.Budgets[tier.name]
		if !ok {
			t.Fatalf("alloc_budget.json has no budget for %s", tier.name)
		}
		i := 0
		got := testing.AllocsPerRun(2*len(tier.targets), func() {
			cfg := DefaultConfig(gates.Shared(5), 5, 4, 2000)
			cfg.Epsilon = tier.eps
			cfg.Rng = rand.New(rand.NewSource(1))
			TRASYN(tier.targets[i%len(tier.targets)], cfg)
			i++
		})
		t.Logf("%s: %.0f allocs/op (budget %.0f)", tier.name, got, budget)
		if got > budget {
			t.Errorf("%s: %.0f allocs/op exceeds budget %.0f — trasyn's sampler regressed; see DESIGN.md §Engine performance", tier.name, got, budget)
		}
	}
}
