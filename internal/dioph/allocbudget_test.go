package dioph

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/ring"
)

// TestAllocBudget is the norm equation's allocation gate: Solve on the
// golden ξ that gridsynth's norms reach (|N(ξ)| < 2^31), through one warm
// Solver as a search uses it, must stay within the allocs/op ceiling in
// testdata/alloc_budget.json. Like the other packages' gates it runs only
// when PERF_SMOKE=1 (the CI perf-smoke job), and not under -race, where
// counts are not comparable.
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
	const name = "solve"
	budget, ok := ceilings.Budgets[name]
	if !ok {
		t.Fatalf("alloc_budget.json has no budget for %s", name)
	}
	var xis []ring.ZSqrt2
	for _, xi := range goldenXis() {
		if belowNormLimit(xi) {
			xis = append(xis, xi)
		}
	}
	sv := NewSolver()
	for _, xi := range xis { // warm the square-root memo
		sv.Solve(xi)
	}
	i := 0
	got := testing.AllocsPerRun(len(xis), func() {
		sv.Solve(xis[i%len(xis)])
		i++
	})
	t.Logf("%s: %.1f allocs/op over %d ξ (budget %.0f)", name, got, len(xis), budget)
	if got > budget {
		t.Errorf("%s: %.1f allocs/op exceeds budget %.0f — the word path allocates; see DESIGN.md §Engine performance", name, got, budget)
	}
}
