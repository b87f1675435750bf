package optimize

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// randomSet is a sorted set of up to six variables below 1<<16, so its
// uvarint key mixes one-, two- and three-byte variables.
func randomSet(rng *rand.Rand) []int {
	seen := map[int]bool{}
	var s []int
	for n := 1 + rng.Intn(6); len(s) < n; {
		v := rng.Intn(1 << (4 * (1 + rng.Intn(4))))
		if !seen[v] {
			seen[v] = true
			s = append(s, v)
		}
	}
	slices.Sort(s)
	return s
}

// TestParityKeysInjective: distinct parity sets never share a fold slot,
// and every set finds its own again. Among the sets are one-variable sets
// against multi-variable ones written with the same digits ({12} against
// {1, 2}) and variables on either side of a uvarint byte boundary.
func TestParityKeysInjective(t *testing.T) {
	sets := [][]int{
		{}, {0}, {1}, {2}, {12}, {1, 2}, {1, 12}, {12, 13}, {1, 2, 3}, {123},
		{12, 3}, {1, 23}, {127}, {128}, {1, 127}, {1, 128}, {0, 128}, {0, 1, 128},
		{16383}, {16384}, {1, 16384}, {128, 16384}, {0, 1, 2, 3, 4, 5},
	}
	rng := rand.New(rand.NewSource(17))
	for len(sets) < 5000 {
		sets = append(sets, randomSet(rng))
	}
	// fmt.Sprint of a sorted set is the reference injective key.
	seen := map[string]bool{}
	distinct := sets[:0]
	for _, s := range sets {
		if k := fmt.Sprint(s); !seen[k] {
			seen[k] = true
			distinct = append(distinct, s)
		}
	}
	keys := newParityKeys()
	for v := 0; v < 1<<16; v++ {
		keys.newVar()
	}
	for i, s := range distinct {
		if got, found := keys.slot(s, i); found {
			t.Fatalf("%v shares slot %d with %v", s, got, distinct[got])
		}
	}
	for i, s := range distinct {
		if got, found := keys.slot(s, -1); !found || got != i {
			t.Fatalf("%v: slot %d (found %v), want %d", s, got, found, i)
		}
	}
}

// TestSymdiffMatchesSetDefinition: the merge equals the symmetric
// difference computed by counting membership, sorted.
func TestSymdiffMatchesSetDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 2000; trial++ {
		a, b := randomSet(rng), randomSet(rng)
		if trial%3 == 0 {
			b = append(slices.Clone(a[:rng.Intn(len(a)+1)]), b...)
			slices.Sort(b)
			b = slices.Compact(b)
		}
		in := map[int]int{}
		for _, v := range a {
			in[v]++
		}
		for _, v := range b {
			in[v]++
		}
		var want []int
		for v, n := range in {
			if n == 1 {
				want = append(want, v)
			}
		}
		slices.Sort(want)
		prefix := []int{-1}
		got := symdiff(prefix, a, b)
		if !slices.Equal(got[1:], want) || got[0] != -1 {
			t.Fatalf("symdiff(%v, %v) = %v, want %v", a, b, got[1:], want)
		}
	}
}
