package expt

import (
	"fmt"
	"sort"
)

// Experiment regenerates one table or figure.
type Experiment struct {
	ID   string
	Desc string
	Run  func(Config) (*Table, error)
}

// Registry lists every experiment, keyed by the paper artifact it
// regenerates.
func Registry() []Experiment {
	return []Experiment{
		{"fig2", "headline reduction-ratio summary (T/Clifford/infidelity)", Fig2},
		{"fig3b", "Rz:U3 rotation-count ratio across the suite", Fig3b},
		{"fig6", "best-transpile-setting histogram (16 settings)", Fig6},
		{"fig7", "synthesis error vs T/Clifford count scatter (RQ1)", Fig7},
		{"tab1", "T and Clifford reductions at matched error, and the error reached (Table 1)", Tab1},
		{"fig8", "synthesis time comparison (RQ1)", Fig8},
		{"fig9", "logical-vs-synthesis error tradeoff + sqrt fit (RQ2)", Fig9},
		{"tab2", "benchmark dataset statistics (Table 2)", Tab2},
		{"fig10", "per-category reduction ratios (RQ3)", Fig10},
		{"fig11", "absolute circuit infidelity scatter", Fig11},
		{"fig12", "trasyn vs BQSKit-style resynthesis (RQ3)", Fig12},
		{"fig13", "application fidelity under logical noise (RQ4)", Fig13},
		{"fig14", "before/after post-optimization ratios (RQ5)", Fig14},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("unknown experiment %q (known: %v)", id, ids)
}
