package gridsynth

import (
	"encoding/json"
	"os"
	"testing"
)

// TestAllocBudget is the perf-smoke allocation gate: steady-state Rz
// synthesis must stay within the allocs/op ceilings checked into
// testdata/alloc_budget.json. It runs only when PERF_SMOKE=1 (the CI
// perf-smoke job) because allocation counts are not comparable under the
// race detector or arbitrary developer environments.
func TestAllocBudget(t *testing.T) {
	if os.Getenv("PERF_SMOKE") != "1" {
		t.Skip("set PERF_SMOKE=1 to enforce the allocation budget")
	}
	data, err := os.ReadFile("testdata/alloc_budget.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Budgets map[string]float64 `json:"budgets"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	tiers := map[string]float64{"1e-2": 1e-2, "1e-4": 1e-4, "1e-6": 1e-6}
	for name, eps := range tiers {
		budget, ok := cfg.Budgets[name]
		if !ok {
			t.Fatalf("alloc_budget.json has no budget for %s", name)
		}
		i := 0
		op := func() {
			if _, err := Rz(1.0+float64(i%5)*0.21, eps, Options{}); err != nil {
				t.Fatal(err)
			}
			i++
		}
		op() // warm-up: shared table build, big.Int capacity growth
		got := testing.AllocsPerRun(20, op)
		t.Logf("eps=%s: %.0f allocs/op (budget %.0f)", name, got, budget)
		if got > budget {
			t.Errorf("eps=%s: %.0f allocs/op exceeds budget %.0f — the hot path regressed; see BenchmarkRz and DESIGN.md §Engine performance", name, got, budget)
		}
	}
}
