package optimize

import (
	"encoding/binary"
	"math"
	"sync"

	"repro/circuit"
	"repro/internal/core"
	"repro/internal/gates"
	"repro/internal/transpile"
)

// --- phase folding ---

// foldPhases is the "foldphases" rule: CNOT-parity tracking merges
// diagonal phase gates applied to the same parity term.
type foldPhases struct{}

// FoldPhases returns the phase-folding rule: it merges diagonal phase
// gates (T, T†, S, S†, Z, RZ) that act on the same CNOT parity of the
// initial wire variables. CX updates parities by symmetric difference;
// any other non-diagonal gate allocates a fresh variable for its qubit
// (ending the foldable region). Parities are exact sorted variable sets,
// so distinct parities never merge.
func FoldPhases() Optimizer { return foldPhases{} }

func (foldPhases) Name() string { return "foldphases" }

// phaseSlot is one merged phase: the summed angle of every phase gate on
// one parity, emitted in place of the first such gate, input op first.
type phaseSlot struct {
	angle float64
	qubit int
	first int
}

func (foldPhases) Optimize(c *circuit.Circuit) (*circuit.Circuit, error) {
	keys := newParityKeys()
	parity := make([][]int, c.N)
	for q := range parity {
		parity[q] = []int{keys.newVar()}
	}
	// Each qubit owns its parity slice, so updates reuse its storage.
	fresh := func(q int) { parity[q] = append(parity[q][:0], keys.newVar()) }
	var slots []phaseSlot
	var diff []int
	for i, op := range c.Ops {
		if a, ok := phaseAngle(op); ok {
			q := op.Q[0]
			if s, found := keys.slot(parity[q], len(slots)); found {
				slots[s].angle += a
			} else {
				slots = append(slots, phaseSlot{angle: a, qubit: q, first: i})
			}
			continue
		}
		switch {
		case op.G == circuit.CX:
			t := op.Q[1]
			diff = symdiff(diff[:0], parity[t], parity[op.Q[0]])
			parity[t] = append(parity[t][:0], diff...)
		case op.G == circuit.CZ:
			// Diagonal: commutes with Z-phases, parities unchanged.
		case op.G == circuit.SWAP:
			// Relabeling: the parities travel with the qubits.
			parity[op.Q[0]], parity[op.Q[1]] = parity[op.Q[1]], parity[op.Q[0]]
		case op.G == circuit.I:
		default:
			fresh(op.Q[0])
			if op.G.IsTwoQubit() {
				fresh(op.Q[1])
			}
		}
	}
	// Each slot's phase takes its first gate's place; the gates merged
	// into it and identities are dropped; every other op is kept.
	out := &circuit.Circuit{N: c.N, Ops: make([]circuit.Op, 0, len(c.Ops))}
	next := 0 // slots are in input order
	for i, op := range c.Ops {
		if next < len(slots) && slots[next].first == i {
			emitPhase(out, slots[next].qubit, slots[next].angle)
			next++
			continue
		}
		if _, ok := phaseAngle(op); ok || op.G == circuit.I {
			continue
		}
		out.Add(op)
	}
	return out, nil
}

// phaseAngle returns the RZ angle of a diagonal phase gate.
func phaseAngle(op circuit.Op) (float64, bool) {
	switch op.G {
	case circuit.Z:
		return math.Pi, true
	case circuit.S:
		return math.Pi / 2, true
	case circuit.Sdg:
		return -math.Pi / 2, true
	case circuit.T:
		return math.Pi / 4, true
	case circuit.Tdg:
		return -math.Pi / 4, true
	case circuit.RZ:
		return op.P[0], true
	}
	return 0, false
}

// parityKeys allocates the wire variables and maps parities, sorted
// variable sets, to phase slots. Most parities in a lowered circuit are
// one variable; their slots sit in single, indexed by the variable. Every
// other set is keyed in multi by its variables' uvarint bytes: uvarints
// are prefix-free, so distinct sets get distinct bytes, and a lookup
// through m[string(b)] does not allocate.
type parityKeys struct {
	single []int // per variable v, the slot of parity {v}, or -1
	multi  map[string]int
	buf    []byte
}

func newParityKeys() *parityKeys { return &parityKeys{multi: map[string]int{}} }

// newVar returns a fresh variable.
func (k *parityKeys) newVar() int {
	k.single = append(k.single, -1)
	return len(k.single) - 1
}

// slot returns the slot of parity vars and true, or, when vars has none
// yet, assigns it slot n and returns n and false.
func (k *parityKeys) slot(vars []int, n int) (int, bool) {
	if len(vars) == 1 {
		if s := k.single[vars[0]]; s >= 0 {
			return s, true
		}
		k.single[vars[0]] = n
		return n, false
	}
	k.buf = k.buf[:0]
	for _, v := range vars {
		k.buf = binary.AppendUvarint(k.buf, uint64(v))
	}
	if s, ok := k.multi[string(k.buf)]; ok {
		return s, true
	}
	k.multi[string(k.buf)] = n
	return n, false
}

// symdiff appends the symmetric difference of sorted sets a and b to dst,
// sorted, by merging them.
func symdiff(dst, a, b []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// emitPhase appends the cheapest discrete gates for an RZ-type phase.
func emitPhase(c *circuit.Circuit, q int, angle float64) {
	angle = math.Mod(angle, 2*math.Pi)
	if angle < 0 {
		angle += 2 * math.Pi
	}
	if angle < 1e-12 || 2*math.Pi-angle < 1e-12 {
		return
	}
	if circuit.TrivialAngle(angle) {
		m := int(math.Round(angle/(math.Pi/4))) % 8
		switch m {
		case 1:
			c.T(q)
		case 2:
			c.S(q)
		case 3:
			c.S(q)
			c.T(q)
		case 4:
			c.Z(q)
		case 5:
			c.Z(q)
			c.T(q)
		case 6:
			c.Gate1(circuit.Sdg, q)
		case 7:
			c.Tdg(q)
		}
		return
	}
	c.RZ(q, angle)
}

// --- table peephole ---

// DefaultPeepholeBudget is the enumeration-table T budget of the
// registered "peephole" rule: windows of up to this many T gates rewrite
// to their canonical minimal form (the experiment configuration of RQ5).
const DefaultPeepholeBudget = 5

// peephole is the "peephole" rule: exact rewriting of maximal
// single-qubit discrete-gate runs against the step-0 enumeration table.
type peephole struct {
	maxT int
	once sync.Once
	tab  *gates.Table
}

// NewPeephole returns the table-peephole rule at the given enumeration
// T budget (0 selects DefaultPeepholeBudget). The table is the
// process-wide shared one, built lazily on first use.
func NewPeephole(maxT int) Optimizer {
	if maxT <= 0 {
		maxT = DefaultPeepholeBudget
	}
	return &peephole{maxT: maxT}
}

func (p *peephole) Name() string { return "peephole" }

// Optimize rewrites maximal runs of discrete 1q gates per qubit into
// their minimal table form (trasyn's step-3 rewriting applied
// circuit-wide).
func (p *peephole) Optimize(c *circuit.Circuit) (*circuit.Circuit, error) {
	p.once.Do(func() { p.tab = gates.Shared(p.maxT) })
	out := &circuit.Circuit{N: c.N, Ops: make([]circuit.Op, 0, len(c.Ops))}
	pending := make([]gates.Sequence, c.N) // time-ordered runs
	var rev gates.Sequence
	flush := func(q int) {
		run := pending[q]
		if len(run) == 0 {
			return
		}
		pending[q] = run[:0]
		// Convert time order → matrix-product order, rewrite, convert back.
		rev = rev[:0]
		for i := len(run) - 1; i >= 0; i-- {
			rev = append(rev, run[i])
		}
		seq := core.Rewrite(rev, p.tab)
		for i := len(seq) - 1; i >= 0; i-- {
			if g := seq[i]; g != gates.I {
				out.Add(circuit.Op{G: circuitGate[g], Q: [2]int{q, -1}})
			}
		}
	}
	for _, op := range c.Ops {
		if op.G.IsTwoQubit() {
			flush(op.Q[0])
			flush(op.Q[1])
			out.Add(op)
			continue
		}
		if g, ok := tableGate(op.G); ok {
			pending[op.Q[0]] = append(pending[op.Q[0]], g)
			continue
		}
		if op.G == circuit.I {
			continue
		}
		flush(op.Q[0])
		out.Add(op)
	}
	for q := 0; q < c.N; q++ {
		flush(q)
	}
	return out, nil
}

// tableGate maps a discrete non-identity one-qubit gate to the table's
// alphabet.
func tableGate(g circuit.GateType) (gates.Gate, bool) {
	switch g {
	case circuit.X:
		return gates.X, true
	case circuit.Y:
		return gates.Y, true
	case circuit.Z:
		return gates.Z, true
	case circuit.H:
		return gates.H, true
	case circuit.S:
		return gates.S, true
	case circuit.Sdg:
		return gates.Sdg, true
	case circuit.T:
		return gates.T, true
	case circuit.Tdg:
		return gates.Tdg, true
	}
	return 0, false
}

// circuitGate is tableGate's inverse.
var circuitGate = [...]circuit.GateType{
	gates.I: circuit.I, gates.X: circuit.X, gates.Y: circuit.Y, gates.Z: circuit.Z,
	gates.H: circuit.H, gates.S: circuit.S, gates.Sdg: circuit.Sdg,
	gates.T: circuit.T, gates.Tdg: circuit.Tdg,
}

// --- ZXZXZ resynthesis ---

// zxzxz is the "zxzxz" rule: partition-and-reinstantiate resynthesis
// that re-expresses every merged single-qubit unitary in the fixed ZXZXZ
// template RZ(φ+π)·SX·RZ(θ+π)·SX·RZ(λ) (SX = √X, a Clifford). Like
// BQSKit's numerical instantiation, this canonicalizes structure at the
// cost of inflating the number of arbitrary rotations — one U3 becomes
// three nontrivial RZ gates — which is exactly the behavior the paper
// measures against in Figure 12.
type zxzxz struct{}

// ZXZXZ returns the resynthesis rule. It is registered but not part of
// Defaults(): it trades T-friendly structure for rotation count and
// exists for resynthesis pipelines and comparisons.
func ZXZXZ() Optimizer { return zxzxz{} }

func (zxzxz) Name() string { return "zxzxz" }

// Optimize merges adjacent 1q gates, then re-instantiates each U3 into
// the ZXZXZ template, emitting an Rz-basis circuit (SX expanded into
// H·S·H-form Cliffords via the RZ(π/2) identity).
func (zxzxz) Optimize(c *circuit.Circuit) (*circuit.Circuit, error) {
	merged := transpile.Merge1Q(c)
	out := circuit.New(c.N)
	for _, op := range merged.Ops {
		if op.G != circuit.U3 {
			out.Add(op)
			continue
		}
		th, ph, la := op.P[0], op.P[1], op.P[2]
		q := op.Q[0]
		// Time order: RZ(λ), SX, RZ(θ+π), SX, RZ(φ+π); SX = H·RZ(π/2)·H up
		// to phase (H S H).
		emit := func(angle float64) {
			angle = math.Mod(angle, 2*math.Pi)
			if angle < 0 {
				angle += 2 * math.Pi
			}
			if angle > 1e-12 && 2*math.Pi-angle > 1e-12 {
				out.RZ(q, angle)
			}
		}
		sx := func() {
			out.H(q)
			out.S(q)
			out.H(q)
		}
		emit(la)
		sx()
		emit(th + math.Pi)
		sx()
		emit(ph + math.Pi)
	}
	return out, nil
}
