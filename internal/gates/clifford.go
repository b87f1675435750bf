package gates

import (
	"sort"
	"sync"

	"repro/internal/qmat"
	"repro/internal/ring"
)

// Clifford is one of the 24 single-qubit Clifford operators (up to global
// phase) with a cost-minimal generating sequence.
type Clifford struct {
	Seq Sequence  // cost-minimal sequence over {H, S, X, Y, Z}
	U   ring.UMat // exact matrix of Seq
	M   qmat.M2   // numeric matrix
	Key ring.Key  // canonical phase-invariant key
}

var (
	cliffordOnce  sync.Once
	cliffordGroup []Clifford
	// cliffordAt maps a Bloch matrix's permCode to its Clifford's index
	// in cliffordGroup, or −1.
	cliffordAt [36]int8
)

// CliffordGroup returns the 24 Clifford operators, ordered with the identity
// first, each with a sequence minimizing (non-Pauli count, length). The
// result is built once and shared; callers must not mutate it.
func CliffordGroup() []Clifford {
	cliffordOnce.Do(buildCliffords)
	return cliffordGroup
}

// CliffordIndex returns the index into CliffordGroup of the operator equal
// to u up to global phase, or -1 if u is not a Clifford. It reads u's
// normal form as Table.Find does, with a budget of no T gate.
func CliffordIndex(u ring.UMat) int {
	if _, _, c, ok := address(&u, 0); ok {
		return c
	}
	return -1
}

type cliffCand struct {
	seq Sequence
	u   ring.UMat
}

func buildCliffords() {
	// Dijkstra-flavored BFS over generators; Paulis cost 0, H/S cost 1.
	gens := []Gate{X, Y, Z, H, S}
	best := map[ring.Key]cliffCand{}
	cost := func(s Sequence) (int, int) { return s.CliffordCount(), len(s) }
	better := func(a, b Sequence) bool {
		ac, al := cost(a)
		bc, bl := cost(b)
		if ac != bc {
			return ac < bc
		}
		return al < bl
	}
	id := cliffCand{seq: Sequence{}, u: ring.UIdentity()}
	best[id.u.CanonicalKey()] = id
	frontier := []cliffCand{id}
	for len(frontier) > 0 && len(best) < 24 {
		var next []cliffCand
		for _, c := range frontier {
			for _, g := range gens {
				nu := c.u.Mul(g.UMat())
				ns := append(append(Sequence{}, c.seq...), g)
				key := nu.CanonicalKey()
				if old, ok := best[key]; !ok || better(ns, old.seq) {
					best[key] = cliffCand{seq: ns, u: nu}
					next = append(next, cliffCand{seq: ns, u: nu})
				}
			}
		}
		frontier = next
	}
	// A couple of relaxation rounds so that costs settle (the graph is tiny).
	for round := 0; round < 4; round++ {
		changed := false
		for _, c := range snapshot(best) {
			for _, g := range gens {
				nu := c.u.Mul(g.UMat())
				ns := append(append(Sequence{}, c.seq...), g)
				key := nu.CanonicalKey()
				if old, ok := best[key]; !ok || better(ns, old.seq) {
					best[key] = cliffCand{seq: ns, u: nu}
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	if len(best) != 24 {
		panic("gates: Clifford group enumeration did not yield 24 elements")
	}
	cliffordGroup = make([]Clifford, 0, 24)
	for key, c := range best {
		cliffordGroup = append(cliffordGroup, Clifford{Seq: c.seq, U: c.u, M: c.u.Complex(), Key: key})
	}
	// Deterministic order: identity first, then by (cost, len, key).
	sort.Slice(cliffordGroup, func(i, j int) bool {
		a, b := cliffordGroup[i], cliffordGroup[j]
		ac, al := a.Seq.CliffordCount(), len(a.Seq)
		bc, bl := b.Seq.CliffordCount(), len(b.Seq)
		if ac != bc {
			return ac < bc
		}
		if al != bl {
			return al < bl
		}
		return lessKey(a.Key, b.Key)
	})
	for i := range cliffordAt {
		cliffordAt[i] = -1
	}
	for i, c := range cliffordGroup {
		var x bloch
		k, ok := x.set(&c.U)
		code := x.permCode()
		if !ok || k != 0 || code < 0 || cliffordAt[code] >= 0 {
			panic("gates: the Cliffords' Bloch matrices are not 24 distinct signed permutations")
		}
		cliffordAt[code] = int8(i)
	}
}

func snapshot(m map[ring.Key]cliffCand) []cliffCand {
	out := make([]cliffCand, 0, len(m))
	for _, c := range m {
		out = append(out, c)
	}
	return out
}

func lessKey(a, b ring.Key) bool {
	if a.K != b.K {
		return a.K < b.K
	}
	for i := range a.C {
		if a.C[i] != b.C[i] {
			return a.C[i] < b.C[i]
		}
	}
	return false
}
