// Package optimize is the public T-count circuit-optimizer subsystem: a
// registry of named rewrite rules (Optimizer implementations) plus a
// fixed-point Driver that applies them until no rule improves the
// circuit. Its rules are first-class citizens of the compilation stack:
//
//   - "foldphases" — phase folding: CNOT-parity tracking merges diagonal
//     phase gates (T/S/Z/RZ) applied to the same parity term, the primary
//     mechanism by which ZX-calculus optimizers reclaim T gates (the
//     PyZX stand-in for RQ5);
//   - "peephole" — exact peephole rewriting of single-qubit gate runs
//     against the step-0 enumeration table of minimal Clifford+T forms
//     (trasyn's step-3 rewriting applied circuit-wide);
//   - "zxzxz" — partition-and-reinstantiate resynthesis into the fixed
//     ZXZXZ template RZ·SX·RZ·SX·RZ (the BQSKit stand-in for Figure
//     12). Unlike the other rules it trades structure for rotation count
//     and is therefore not in the default rule set; it exists for
//     resynthesis pipelines and comparisons.
//
// Every registered optimizer preserves the circuit unitary exactly (up
// to global phase), which the package property tests verify by
// simulation. The synth package wires the subsystem into circuit
// compilation as the OptimizeRotations (pre-lowering) and
// OptimizeCliffordT (post-lowering) passes — see synth.WithOptimize.
package optimize

import (
	"fmt"

	"repro/circuit"
)

// Optimizer is one named circuit-to-circuit rewrite rule. Implementations
// must not mutate the input circuit and must preserve its unitary up to
// global phase; they are free to return the input unchanged when they
// find nothing to improve.
type Optimizer interface {
	// Name is the stable identifier used by the registry, the
	// synth.WithOptimizers option, and the Driver's per-rule hit counters.
	Name() string
	// Optimize returns a rewritten circuit (or c itself when nothing
	// improved).
	Optimize(c *circuit.Circuit) (*circuit.Circuit, error)
}

// Result is one Driver run: the optimized circuit, the before/after
// metric snapshots, and what the driver learned on the way there.
type Result struct {
	// Circuit is the optimized circuit.
	Circuit *circuit.Circuit
	// Before/After are the full metric snapshots bracketing the run; the
	// headline delta is Before.TCount - After.TCount.
	Before, After circuit.Metrics
	// Iterations counts full rule sweeps executed, including the final
	// sweep that confirmed the fixed point. Capped at the driver ceiling.
	Iterations int
	// Converged reports whether a true fixed point was reached (false
	// only when the safety ceiling cut the run short).
	Converged bool
	// RuleHits counts, per rule name, the sweeps in which that rule
	// strictly improved the circuit cost.
	RuleHits map[string]int
}

// TSaved is the headline metric: T gates reclaimed by the run.
func (r *Result) TSaved() int { return r.Before.TCount - r.After.TCount }

// DefaultMaxIterations is the Driver's safety ceiling on full rule
// sweeps. Phase folding and peephole rewriting both converge in a
// handful of sweeps on every workload in the suite; the ceiling exists
// so a pathological rule pair cannot livelock the compile path.
const DefaultMaxIterations = 32

// Driver applies a rule list to a fixed point: rules run in order, and
// sweeps repeat until a full sweep leaves the circuit cost unchanged (or
// the safety ceiling trips). The zero value is not useful; construct
// with NewDriver.
type Driver struct {
	rules []Optimizer
	// MaxIterations overrides the sweep ceiling (0 = DefaultMaxIterations).
	MaxIterations int
}

// NewDriver builds a fixed-point driver over the given rules. With no
// rules it uses Defaults() — the T-count-reducing pair.
func NewDriver(rules ...Optimizer) *Driver {
	if len(rules) == 0 {
		rules = Defaults()
	}
	return &Driver{rules: rules}
}

// NewDriverNamed resolves rule names through the registry.
func NewDriverNamed(names ...string) (*Driver, error) {
	if len(names) == 0 {
		return NewDriver(), nil
	}
	rules := make([]Optimizer, len(names))
	for i, n := range names {
		o, ok := Lookup(n)
		if !ok {
			return nil, fmt.Errorf("optimize: unknown optimizer %q (have %v)", n, List())
		}
		rules[i] = o
	}
	return NewDriver(rules...), nil
}

// Rules returns the configured rule names in application order.
func (d *Driver) Rules() []string {
	names := make([]string, len(d.rules))
	for i, r := range d.rules {
		names[i] = r.Name()
	}
	return names
}

// cost is the driver's improvement ordering: T count dominates, then
// non-Pauli Cliffords, then raw op count (so pure cleanups that delete
// identities still register as progress).
func cost(c *circuit.Circuit) [3]int {
	return [3]int{c.TCount(), c.CliffordCount(), len(c.Ops)}
}

func less(a, b [3]int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// Run drives the rule list to a fixed point on c. The input circuit is
// never mutated. Within a sweep every rule is applied unconditionally —
// one rule's rearrangement can enable the next even when it does not
// improve the cost by itself — and sweeps repeat while the circuit keeps
// improving. The best-cost circuit seen is what the Result carries, so a
// run can never regress the T count even when a structural rule (zxzxz)
// inflates the circuit mid-sweep.
func (d *Driver) Run(c *circuit.Circuit) (*Result, error) {
	maxIter := d.MaxIterations
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	res := &Result{
		Before:   c.Metrics(),
		RuleHits: map[string]int{},
	}
	cur, best := c, c
	curCost := cost(cur)
	bestCost := curCost
	for res.Iterations < maxIter {
		res.Iterations++
		sweepStart := curCost
		for _, rule := range d.rules {
			next, err := rule.Optimize(cur)
			if err != nil {
				return nil, fmt.Errorf("optimize: rule %s: %w", rule.Name(), err)
			}
			if next == nil {
				return nil, fmt.Errorf("optimize: rule %s returned a nil circuit", rule.Name())
			}
			nextCost := cost(next)
			if less(nextCost, curCost) {
				res.RuleHits[rule.Name()]++
			}
			cur, curCost = next, nextCost
			if less(curCost, bestCost) {
				best, bestCost = cur, curCost
			}
		}
		if !less(curCost, sweepStart) {
			res.Converged = true
			break
		}
	}
	res.Circuit = best
	res.After = best.Metrics()
	return res, nil
}

// Run is the package-level convenience: a fixed-point run of the given
// rules (Defaults() when empty) over c.
func Run(c *circuit.Circuit, rules ...Optimizer) (*Result, error) {
	return NewDriver(rules...).Run(c)
}
