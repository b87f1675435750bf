package gates

import (
	"math/rand"
	"testing"

	"repro/internal/ring"
)

// refIndex keys every entry of tab by the canonical phase-invariant key of
// its exact matrix: the hash index Table.Find kept before it read an
// operator's normal form off the operator itself.
func refIndex(tab *Table) map[ring.Key]*Entry {
	idx := make(map[ring.Key]*Entry, tab.Count())
	for _, e := range tab.Collect(0, tab.MaxT) {
		idx[e.Sequence().UMat().CanonicalKey()] = e
	}
	return idx
}

// refFind is Table.Find through that index: the entry equal to u up to
// global phase, if its T count is at most maxT.
func refFind(idx map[ring.Key]*Entry, maxT int, u ring.UMat) (*Entry, bool) {
	e, ok := idx[u.CanonicalKey()]
	if !ok || int(e.TCount) > maxT {
		return nil, false
	}
	return e, true
}

// TestFindMatchesReference: Find returns the entry the canonical-key index
// returns, on every entry of a T ≤ 8 table under all eight global phases,
// on random words of up to 12 T gates through a T ≤ 10 table, and on
// matrices one coefficient away from an entry; the levels above a T ≤ 4
// budget miss, whether that table is built or a view of a larger one.
func TestFindMatchesReference(t *testing.T) {
	tab := BuildTable(8)
	idx := refIndex(tab)
	for lvl, es := range tab.Levels {
		for i := range es {
			e := &es[i]
			u := e.Sequence().UMat()
			for j := 0; j < 8; j++ {
				v := u.MulPhase(j)
				got, ok := tab.Find(v)
				want, wok := refFind(idx, tab.MaxT, v)
				if !ok || !wok || got != want || got != e {
					t.Fatalf("level %d entry %d (%v) under ω^%d: Find %p, %t; reference %p, %t; entry %p",
						lvl, i, e.Sequence(), j, got, ok, want, wok, e)
				}
			}
		}
	}

	small := BuildTable(4)
	for _, c := range []struct {
		name string
		tab  *Table
	}{{"BuildTable(4)", small}, {"view(4)", tab.view(4)}} {
		for lvl, es := range tab.Levels {
			for i := range es {
				got, ok := c.tab.Find(es[i].Sequence().UMat())
				switch {
				case lvl > 4 && ok:
					t.Fatalf("%s: level %d entry %d found", c.name, lvl, i)
				case lvl <= 4 && (!ok || got != &c.tab.Levels[lvl][i]):
					t.Fatalf("%s: level %d entry %d: Find %p, %t; want %p", c.name, lvl, i, got, ok, &c.tab.Levels[lvl][i])
				}
			}
		}
	}

	tab10 := BuildTable(10)
	idx10 := refIndex(tab10)
	rng := rand.New(rand.NewSource(26))
	hits, misses := 0, 0
	for trial := 0; trial < 4000; trial++ {
		w := randomWord(rng, 1+rng.Intn(48))
		if trial%2 == 1 {
			// Syllables H·D·T^±1 with D diagonal: mostly no shorter form,
			// so the words of 11 and 12 syllables miss.
			w = w[:0]
			for n := 1 + rng.Intn(12); n > 0; n-- {
				w = append(w, H, []Gate{I, S, Sdg, Z}[rng.Intn(4)], []Gate{T, Tdg}[rng.Intn(2)])
			}
		}
		if w.TCount() > 12 {
			continue
		}
		u := w.UMat()
		got, ok := tab10.Find(u)
		want, wok := refFind(idx10, tab10.MaxT, u)
		if ok != wok || got != want {
			t.Fatalf("%v: Find %p, %t; reference %p, %t", w, got, ok, want, wok)
		}
		if ok {
			hits++
		} else {
			misses++
		}
	}
	if hits < 1000 || misses < 100 {
		t.Fatalf("random words: %d hits and %d misses; the draw no longer covers both", hits, misses)
	}

	// A shifted coefficient leaves the matrix non-unitary, except that ±2
	// on the unit entry of a K = 0 monomial flips its sign, which lands on
	// another entry; the reference finds exactly those.
	for trial := 0; trial < 300; trial++ {
		es := tab.Levels[rng.Intn(len(tab.Levels))]
		u := es[rng.Intn(len(es))].Sequence().UMat()
		for pos := 0; pos < 16; pos++ {
			for _, shift := range []int64{1, -1, 2, -2, 128, -128, 256, -256} {
				v := u
				z := &v.E[pos/8][pos/4%2]
				*[4]*int64{&z.A, &z.B, &z.C, &z.D}[pos%4] += shift
				got, ok := tab.Find(v)
				want, wok := refFind(idx, tab.MaxT, v)
				if ok != wok || got != want {
					t.Fatalf("%v: Find %p, %t; reference %p, %t", v, got, ok, want, wok)
				}
				if ok && (u.K > 0 || (shift != 2 && shift != -2)) {
					t.Fatalf("%v found although a coefficient of %v was shifted by %d", v, u, shift)
				}
			}
		}
	}
	big := ring.UIdentity()
	big.K = 200
	if e, ok := tab.Find(big); ok {
		t.Fatalf("denominator exponent 200 found as %v", e.Sequence())
	}
}
