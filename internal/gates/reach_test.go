package gates

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/qmat"
)

// leastT returns, for each ε, the least T count of an entry of tab within
// ε of u (Distance < ε), or tab.MaxT+1 if none is: a scan of every entry.
func leastT(tab *Table, u qmat.M2, epss []float64) []int {
	out := make([]int, len(epss))
	for i := range out {
		out[i] = tab.MaxT + 1
	}
	for t, lvl := range tab.Levels {
		for j := range lvl {
			d := qmat.Distance(u, lvl[j].M)
			for i, eps := range epss {
				if d < eps && t < out[i] {
					out[i] = t
				}
			}
		}
	}
	return out
}

// TestReachesMatchesTable: for budgets 0–8, Reaches agrees with a scan of
// every entry of a T ≤ 8 table, on Haar targets at ε from 0.2 to 2e-2 and
// on Rz and Rx targets; and every entry, taken as its own target at
// ε = 1e-9, reaches at its own T count and not one below it.
func TestReachesMatchesTable(t *testing.T) {
	tab := BuildTable(8)
	epss := []float64{0.2, 0.1, 5e-2, 3e-2, 2e-2}
	rng := rand.New(rand.NewSource(11))
	targets := make([]qmat.M2, 0, 360)
	for range 300 {
		targets = append(targets, qmat.HaarRandom(rng))
	}
	for range 30 {
		targets = append(targets, qmat.Rz(2*math.Pi*rng.Float64()), qmat.Rx(2*math.Pi*rng.Float64()))
	}
	step := 1
	if raceEnabled {
		step = 15
	}
	reached := make([]int, tab.MaxT+2) // targets by least T, over every ε
	for n := 0; n < len(targets); n += step {
		u := targets[n]
		least := leastT(tab, u, epss)
		for i, eps := range epss {
			reached[least[i]]++
			for b := 0; b <= tab.MaxT; b++ {
				if got, want := Reaches(u, eps, b), least[i] <= b; got != want {
					t.Errorf("target %d, ε %g, budget %d: Reaches %v, the table's least T within ε is %d", n, eps, b, got, least[i])
				}
			}
		}
	}
	t.Logf("(target, ε) pairs by least T within ε, T = 0…8 then none: %v", reached)

	for lvl := range tab.Levels {
		for j := 0; j < len(tab.Levels[lvl]); j += step {
			e := &tab.Levels[lvl][j]
			if !Reaches(e.M, 1e-9, lvl) {
				t.Fatalf("entry %s (T = %d) does not reach itself at its T count", e.Sequence(), lvl)
			}
			if lvl > 0 && Reaches(e.M, 1e-9, lvl-1) {
				t.Fatalf("entry %s (T = %d) reaches itself at T count %d", e.Sequence(), lvl, lvl-1)
			}
		}
	}
}

// TestReachesEdges: a negative budget holds no operator, and an ε that
// every operator meets, or that is NaN, certifies nothing. A target with a
// non-unitary part is bounded, not ignored: 1.01·I reaches what I reaches.
func TestReachesEdges(t *testing.T) {
	u := qmat.HaarRandom(rand.New(rand.NewSource(3)))
	if Reaches(u, 0.5, -1) {
		t.Error("a negative budget reached")
	}
	if !Reaches(u, 1, 0) || !Reaches(u, math.NaN(), 0) {
		t.Error("ε 1 or NaN did not reach")
	}
	scaled := qmat.M2{{1.01, 0}, {0, 1.01}}
	if !Reaches(scaled, 1e-9, 0) {
		t.Error("1.01·I does not reach the identity")
	}
}

// BenchmarkReaches walks a Haar target that no T ≤ 15 operator meets at
// ε = 1e-3 (its least T is near 25), so every node is visited:
// 3·2^B − 2 of them.
func BenchmarkReaches(b *testing.B) {
	u := qmat.HaarRandom(rand.New(rand.NewSource(5)))
	for _, budget := range []int{10, 15} {
		b.Run(fmt.Sprintf("B=%d", budget), func(b *testing.B) {
			for range b.N {
				if Reaches(u, 1e-3, budget) {
					b.Fatal("the target reached 1e-3")
				}
			}
		})
	}
}
