package gates

import (
	"fmt"
	"sync"

	"repro/internal/qmat"
	"repro/internal/ring"
)

// Entry is one unique Clifford+T operator (up to global phase), stored as
// its Matsumoto–Amano normal form (ε|T)(HT|SHT)*·C. The MA form realizes
// the minimal T count for the operator.
type Entry struct {
	M        qmat.M2 // numeric matrix of the normal form
	TPart    uint32  // syllable bits: bit i = 1 means syllable i is SHT, else HT
	NSyl     uint8   // number of (HT|SHT) syllables
	LeadT    bool    // leading T factor present
	Cliff    uint8   // index into CliffordGroup()
	TCount   uint8   // minimal T count (NSyl + LeadT)
	NonPauli uint8   // H+S+S† gates in Sequence() (Clifford cost)
}

// Sequence reconstructs the gate sequence (matrix-product order).
func (e *Entry) Sequence() Sequence {
	return e.AppendSequence(make(Sequence, 0, int(e.NSyl)*3+6))
}

// AppendSequence appends the gate sequence of Sequence to s.
func (e *Entry) AppendSequence(s Sequence) Sequence {
	if e.LeadT {
		s = append(s, T)
	}
	for i := 0; i < int(e.NSyl); i++ {
		if e.TPart>>i&1 == 1 {
			s = append(s, S, H, T)
		} else {
			s = append(s, H, T)
		}
	}
	s = append(s, CliffordGroup()[e.Cliff].Seq...)
	return s
}

// Table is the step-0 enumeration: all unique Clifford+T operators with
// minimal T count ≤ MaxT, in Matsumoto–Amano normal form. It doubles as
// the equivalence lookup table used by trasyn's post-processing and by
// exact synthesis: Find reads an operator's normal form off its Bloch
// matrix, and with it the entry's position (see address).
type Table struct {
	MaxT   int
	Levels [][]Entry // Levels[t] = operators with minimal T count exactly t
}

// checkMaxT panics unless 0 ≤ maxT ≤ 24, the budgets BuildTable takes.
func checkMaxT(maxT int) {
	if maxT < 0 || maxT > 24 {
		panic(fmt.Sprintf("gates: unreasonable maxT %d", maxT))
	}
}

type maPart struct {
	bits uint32
	nsyl uint8
	lead bool
	u    ring.UMat
}

// BuildTable enumerates all unique operators with T count ≤ maxT.
// The number of entries is 24·(3·2^maxT − 2); maxT ≤ 12 is practical.
func BuildTable(maxT int) *Table {
	checkMaxT(maxT)
	cliffs := CliffordGroup()
	ht := Sequence{H, T}.UMat()
	sht := Sequence{S, H, T}.UMat()

	tab := &Table{MaxT: maxT, Levels: make([][]Entry, maxT+1)}

	level := []maPart{{u: ring.UIdentity()}}
	for t := 0; t <= maxT; t++ {
		entries := make([]Entry, 0, len(level)*24)
		for _, p := range level {
			partNP := uint8(0)
			for i := 0; i < int(p.nsyl); i++ {
				if p.bits>>i&1 == 1 {
					partNP += 2 // S H
				} else {
					partNP++ // H
				}
			}
			for ci, c := range cliffs {
				entries = append(entries, Entry{
					M:        p.u.Mul(c.U).Complex(),
					TPart:    p.bits,
					NSyl:     p.nsyl,
					LeadT:    p.lead,
					Cliff:    uint8(ci),
					TCount:   uint8(t),
					NonPauli: partNP + uint8(c.Seq.CliffordCount()),
				})
			}
		}
		tab.Levels[t] = entries
		if t == maxT {
			break
		}
		// Next level of T-parts.
		var next []maPart
		if t == 0 {
			next = []maPart{
				{lead: true, u: T.UMat()},
				{nsyl: 1, bits: 0, u: ht},
				{nsyl: 1, bits: 1, u: sht},
			}
		} else {
			next = make([]maPart, 0, 2*len(level))
			for _, p := range level {
				next = append(next,
					maPart{bits: p.bits, nsyl: p.nsyl + 1, lead: p.lead, u: p.u.Mul(ht)},
					maPart{bits: p.bits | 1<<p.nsyl, nsyl: p.nsyl + 1, lead: p.lead, u: p.u.Mul(sht)},
				)
			}
		}
		level = next
	}
	return tab
}

// Count returns the total number of enumerated operators.
func (t *Table) Count() int {
	n := 0
	for _, l := range t.Levels {
		n += len(l)
	}
	return n
}

// Find returns the entry equal to u up to global phase, if enumerated: u
// must be exactly unitary with T count at most MaxT. A matrix that is not
// exactly unitary, such as an entry with one coefficient changed, misses.
func (t *Table) Find(u ring.UMat) (*Entry, bool) {
	lvl, i, c, ok := address(&u, t.MaxT)
	if !ok {
		return nil, false
	}
	return &t.Levels[lvl][24*i+c], true
}

// view returns the table for budget maxT ≤ t.MaxT without enumerating
// again: BuildTable fills each level the same way whatever its budget, so
// that table is t's first maxT+1 levels.
func (t *Table) view(maxT int) *Table {
	return &Table{MaxT: maxT, Levels: t.Levels[: maxT+1 : maxT+1]}
}

// Collect returns pointers to all entries with T count in [loT, hiT].
func (t *Table) Collect(loT, hiT int) []*Entry {
	if hiT > t.MaxT {
		hiT = t.MaxT
	}
	var out []*Entry
	for lvl := loT; lvl <= hiT; lvl++ {
		if lvl < 0 {
			continue
		}
		es := t.Levels[lvl]
		for i := range es {
			out = append(out, &es[i])
		}
	}
	return out
}

var (
	sharedMu  sync.Mutex
	sharedTab = map[int]*sharedEntry{}
)

// sharedEntry is one per-budget slot. The once guarantees a single
// BuildTable per budget however many goroutines race its first use; tab is
// read and written under sharedMu, which is held only for map and field
// access, so first uses of different budgets build in parallel.
type sharedEntry struct {
	once sync.Once
	tab  *Table
}

// Shared returns a process-wide table for the given budget. When a table
// for a larger budget is already built, it returns a view of that table —
// the same entries, so one enumeration stays in memory rather than two;
// otherwise it builds the table on first use. Tables are immutable after
// construction; Shared is safe for concurrent use, including concurrent
// first use (each budget's table is built at most once). A budget that
// BuildTable refuses panics with its message on every call and is never
// cached.
func Shared(maxT int) *Table {
	checkMaxT(maxT)
	sharedMu.Lock()
	e, ok := sharedTab[maxT]
	if !ok {
		e = &sharedEntry{}
		if big := builtAbove(maxT); big != nil {
			e.tab = big.view(maxT)
		}
		sharedTab[maxT] = e
	}
	tab := e.tab
	sharedMu.Unlock()
	if tab != nil {
		return tab
	}
	e.once.Do(func() {
		built := BuildTable(maxT)
		sharedMu.Lock()
		e.tab = built
		sharedMu.Unlock()
	})
	sharedMu.Lock()
	defer sharedMu.Unlock()
	return e.tab
}

// builtAbove returns the built shared table of the smallest budget above
// maxT, or nil. sharedMu must be held.
func builtAbove(maxT int) *Table {
	var best *Table
	for k, e := range sharedTab {
		if k > maxT && e.tab != nil && (best == nil || k < best.MaxT) {
			best = e.tab
		}
	}
	return best
}
