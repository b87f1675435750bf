package gates

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

// TestAllocBudget is the table's allocation gate: BuildTable(5), the
// table every trasyn workload builds, must stay within the bytes and
// allocations per op in testdata/alloc_budget.json. An index beside the
// entries costs bytes more than allocations, so the gate reads both.
// Like the other packages' gates it runs only when PERF_SMOKE=1 (the CI
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
	const name = "BuildTable(5)"
	budget, ok := ceilings.Budgets[name]
	if !ok {
		t.Fatalf("alloc_budget.json has no budget for %s", name)
	}
	allocs, bytes := perRun(20, func() { BuildTable(5) })
	t.Logf("%s: %.0f B/op in %.0f allocs/op (budget %.0f B, %.0f allocs)", name, bytes, allocs, budget.Bytes, budget.Allocs)
	if bytes > budget.Bytes || allocs > budget.Allocs {
		t.Errorf("%s: %.0f B/op in %.0f allocs/op exceeds budget %.0f B, %.0f allocs — the table holds more than its entries; see DESIGN.md §trasyn's sampler",
			name, bytes, allocs, budget.Bytes, budget.Allocs)
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
