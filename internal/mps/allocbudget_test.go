package mps

import (
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"repro/internal/qmat"
)

// TestAllocBudget is Build's allocation gate: a trasyn chain over the
// T ≤ 5 enumeration, with 3 and with 4 sites, must stay within the bytes
// and allocations per op in testdata/alloc_budget.json. A copy of every
// site costs bytes, not allocations, so the gate reads both.
// Like the engines' gates it runs only when PERF_SMOKE=1 (the CI
// perf-smoke job), and not under -race, where counts are not comparable.
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
		Budgets map[string]struct {
			Bytes  float64 `json:"bytes_per_op"`
			Allocs float64 `json:"allocs_per_op"`
		} `json:"budgets"`
	}
	if err := json.Unmarshal(data, &ceilings); err != nil {
		t.Fatal(err)
	}
	u := qmat.HaarRandom(rand.New(rand.NewSource(19)))
	for _, c := range []struct {
		name string
		n    int
	}{{"3 sites", 3}, {"4 sites", 4}} {
		budget, ok := ceilings.Budgets[c.name]
		if !ok {
			t.Fatalf("alloc_budget.json has no budget for %s", c.name)
		}
		sites := trasynSites(5, c.n)
		allocs, bytes := perRun(20, func() { Build(u, sites) })
		t.Logf("%s: %.0f B/op in %.0f allocs/op (budget %.0f B, %.0f allocs)", c.name, bytes, allocs, budget.Bytes, budget.Allocs)
		if bytes > budget.Bytes || allocs > budget.Allocs {
			t.Errorf("%s: %.0f B/op in %.0f allocs/op exceeds budget %.0f B, %.0f allocs — Build allocates beyond the sites it fills; see DESIGN.md §trasyn's sampler",
				c.name, bytes, allocs, budget.Bytes, budget.Allocs)
		}
	}
}

// perRun returns the allocations and bytes one call of f makes, averaged
// over runs calls after a warm-up call, at GOMAXPROCS 1 as
// testing.AllocsPerRun counts them.
func perRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
