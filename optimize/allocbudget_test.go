package optimize_test

import (
	"encoding/json"
	"os"
	"testing"

	"repro/optimize"
)

// TestAllocBudget is the optimizer's allocation gate: a default Driver
// run over each lowered fixture in turn must stay within the allocs/op
// ceiling in testdata/alloc_budget.json. Like the engines' gates it runs
// only when PERF_SMOKE=1 (the CI perf-smoke job), and not under -race,
// where counts are not comparable.
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
	budget, ok := ceilings.Budgets["driver"]
	if !ok {
		t.Fatal("alloc_budget.json has no budget for driver")
	}
	fixtures := loweredFixtures(t)
	d := optimize.NewDriver()
	got := testing.AllocsPerRun(5, func() {
		for _, f := range fixtures {
			if _, err := d.Run(f.c); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("driver over %d lowered circuits: %.0f allocs/op (budget %.0f)", len(fixtures), got, budget)
	if got > budget {
		t.Errorf("%.0f allocs/op exceeds budget %.0f — the optimizer's rules regressed; see DESIGN.md §Engine performance", got, budget)
	}
}
