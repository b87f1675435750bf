package synth

import "repro/circuit"

// BudgetStrategy selects how a circuit-level error budget ε is split
// across the N nontrivial rotations of an IR. The additive composition of
// unitary distances (the paper's Eq. 2 metric is subadditive under
// products) guarantees the lowered circuit's total error is bounded by the
// sum of per-rotation allocations, so every strategy here allocates shares
// that sum to ε.
type BudgetStrategy int

const (
	// BudgetUniform gives every nontrivial rotation op the same share ε/N.
	// This minimizes the circuit's total T count for a fixed budget (T cost
	// grows like log(1/ε) per synthesis, so the Lagrangian optimum is a
	// constant per-op epsilon).
	BudgetUniform BudgetStrategy = iota
	// BudgetWeighted gives every *distinct* rotation (angle class) an equal
	// share of ε: an op whose angle occurs m times in the circuit receives
	// ε/(D·m), where D is the number of distinct angle classes. Repeated
	// angles are synthesized tighter (they multiply through the error sum)
	// while rare angles get looser, cheaper sequences — this minimizes the
	// T count of the distinct-synthesis set, i.e. compile-time synthesis
	// work, at a small circuit-T premium over BudgetUniform.
	BudgetWeighted
)

// String names the strategy for stats output and CLI flags.
func (s BudgetStrategy) String() string {
	switch s {
	case BudgetWeighted:
		return "weighted"
	default:
		return "uniform"
	}
}

// ParseBudgetStrategy resolves a CLI-flag spelling.
func ParseBudgetStrategy(name string) (BudgetStrategy, bool) {
	switch name {
	case "uniform", "":
		return BudgetUniform, true
	case "weighted":
		return BudgetWeighted, true
	}
	return BudgetUniform, false
}

// budgetClass identifies a rotation's angle class for multiplicity
// counting: the gate type plus its quantized angles (the same quantization
// the synthesis cache keys on, so "same class" and "same cache entry"
// agree).
type budgetClass struct {
	g       circuit.GateType
	a, b, c int64
}

func classOf(op circuit.Op) budgetClass {
	return budgetClass{op.G, quantizeAngle(op.P[0]), quantizeAngle(op.P[1]), quantizeAngle(op.P[2])}
}

// AllocateBudget splits the circuit-level error budget eps across the
// nontrivial rotations of c, returning one epsilon per op (index-aligned
// with c.Ops; entries for ops that consume no synthesis are 0). The
// returned allocations sum to eps — by additivity of the unitary distance
// the lowered circuit's total error is then bounded by eps — unless c has
// no nontrivial rotations, in which case all entries are 0.
func AllocateBudget(c *circuit.Circuit, eps float64, strategy BudgetStrategy) []float64 {
	out := make([]float64, len(c.Ops))
	if eps <= 0 {
		return out
	}
	mult := map[budgetClass]int{}
	total := 0
	for _, op := range c.Ops {
		if !synthesizable(op) {
			continue
		}
		mult[classOf(op)]++
		total++
	}
	if total == 0 {
		return out
	}
	for i, op := range c.Ops {
		if !synthesizable(op) {
			continue
		}
		switch strategy {
		case BudgetWeighted:
			out[i] = eps / (float64(len(mult)) * float64(mult[classOf(op)]))
		default:
			out[i] = eps / float64(total)
		}
	}
	return out
}

// synthesizable reports whether op consumes synthesis budget: a rotation
// that is not a trivial π/4 multiple.
func synthesizable(op circuit.Op) bool {
	return op.G.IsRotation() && !trivialRotation(op)
}
