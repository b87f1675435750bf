package mps

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/qmat"
)

// Sample draws k configurations from p ∝ |trace value|² (perfect MPS
// sampling) through every site, as SampleBestTail does up to its last, and
// returns the distinct ones; envCap is SampleBestTail's.
func (c *Chain) Sample(rng *rand.Rand, k, envCap int) []Sampled {
	if c.norm2 <= 0 || k <= 0 {
		return nil
	}
	levels, _ := c.draw(nil, rng, k, envCap, len(c.sites))
	return sampled(levels)
}

// sameBits describes the first difference between two sample lists,
// compared bit for bit — indices, counts and the trace's IEEE-754 bits —
// or returns "" if there is none.
func sameBits(got, want []Sampled) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d samples, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if !slices.Equal(g.Indices, w.Indices) || g.Count != w.Count ||
			math.Float64bits(real(g.Trace)) != math.Float64bits(real(w.Trace)) ||
			math.Float64bits(imag(g.Trace)) != math.Float64bits(imag(w.Trace)) {
			return fmt.Sprintf("sample %d is %v ×%d, trace %v; want %v ×%d, trace %v",
				i, g.Indices, g.Count, g.Trace, w.Indices, w.Count, w.Trace)
		}
	}
	return ""
}

// TestMatchesReference: Sample, SampleBestTail and Beam reproduce the
// reference loops bit for bit at 1, 2 and 4 workers, with and without an
// envCap, on trasyn's chains — 1 to 4 sites over the T ≤ 5 enumeration —
// and on small random chains whose bonds take the shapes the unrolled
// kernels do not cover.
func TestMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(12))
	type chainCase struct {
		name     string
		chain    *Chain
		k, width int
	}
	var cases []chainCase
	for n := 1; n <= 4; n++ {
		sites := trasynSites(5, n)
		k := 2000
		if n > 2 {
			k = 200 // the reference allocates per prefix; keep it quick
		}
		cases = append(cases, chainCase{fmt.Sprintf("T≤5, %d sites", n), Build(qmat.HaarRandom(rng), sites), k, 24})
	}
	for _, dims := range [][]int{{2, 3, 2}, {3, 1, 4, 2}, {7, 5, 3}, {1, 2, 1, 3}} {
		cases = append(cases, chainCase{fmt.Sprintf("random %v", dims), Build(qmat.HaarRandom(rng), randomSites(rng, dims...)), 300, 5})
	}
	for _, c := range cases {
		wantBeam := c.chain.refBeam(c.width)
		for _, envCap := range []int{0, 8} {
			seed := rng.Int63()
			src := func() *rand.Rand { return rand.New(rand.NewSource(seed)) }
			wantSample := c.chain.refSample(src(), c.k, envCap)
			wantTail := c.chain.refSampleBestTail(src(), c.k, envCap)
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				at := fmt.Sprintf("%s, envCap %d, GOMAXPROCS %d", c.name, envCap, procs)
				if d := sameBits(c.chain.Sample(src(), c.k, envCap), wantSample); d != "" {
					t.Errorf("%s: Sample: %s", at, d)
				}
				if d := sameBits(c.chain.SampleBestTail(src(), c.k, envCap), wantTail); d != "" {
					t.Errorf("%s: SampleBestTail: %s", at, d)
				}
				if envCap == 0 {
					if d := sameBits(c.chain.Beam(c.width), wantBeam); d != "" {
						t.Errorf("%s: Beam: %s", at, d)
					}
				}
			}
		}
	}
}

// TestWorkerPanicReachesCaller: a panic on a sampler worker goroutine is
// re-raised on the goroutine that called the sampler — where a per-op
// recover, like the serving layer's, contains it — instead of killing the
// process.
func TestWorkerPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(13))
	chain := Build(qmat.HaarRandom(rng), randomSites(rng, 64, 64))
	last := &chain.sites[1]
	last.data = last.data[:len(last.data)-1] // every completion now runs off the end
	var got any
	func() {
		defer func() { got = recover() }()
		chain.SampleBestTail(rng, 4000, 0)
	}()
	err, ok := got.(error)
	var re runtime.Error
	if !ok || !errors.As(err, &re) {
		t.Fatalf("recovered %v, want the workers' runtime error", got)
	}
}

// TestDrawMatchesRunningSum: expand's draws read the same inverse CDF as
// the running sums of the weight kernel, whose float operations are the
// reference's, at the environments of prefixes drawn from the chain: on
// trasyn's three- and four-site chains over T ≤ 5, a three-site chain over
// T ≤ 7, and a random chain whose middle Gram forms, unlike trasyn's, are
// far from multiples of the identity. At site 0 (environment [1]) every
// cumulative form equals the running sum bit for bit. At each middle site,
// on 50 environments, every form lies within 1e-12 of the total weight of
// the running sum, and no draw of 10⁵ uniforms picks another index than
// sort.SearchFloat64s picks over the running sum.
func TestDrawMatchesRunningSum(t *testing.T) {
	const envs, uniforms = 50, 100000
	rng := rand.New(rand.NewSource(16))
	for _, c := range []struct {
		name  string
		sites [][]qmat.M2
	}{
		{"T≤5, 3 sites", trasynSites(5, 3)},
		{"T≤5, 4 sites", trasynSites(5, 4)},
		{"T≤7, 3 sites", trasynSites(7, 3)},
		{"random [64 64 3]", randomSites(rng, 64, 64, 3)},
	} {
		chain := Build(qmat.HaarRandom(rng), c.sites)
		levels, _ := chain.draw(nil, rng, 2000, 0, len(c.sites)-1)
		for i := range len(c.sites) - 1 {
			st := &chain.sites[i]
			m := st.m
			forms, w, cum := make([]float64, m*st.dl*st.dl), make([]float64, m), make([]float64, m)
			st.forms(forms)
			at := []node{{env: [4]complex128{1}}}
			if i > 0 {
				at = at[:0]
				for a := range envs {
					at = append(at, levels[i-1][a*len(levels[i-1])/envs])
				}
			}
			mismatches, worst := 0, 0.0
			for _, nd := range at {
				st.weights(&nd.env, w)
				acc := 0.0
				for s, x := range w {
					acc += x
					cum[s] = acc
				}
				total := cum[m-1]
				d := st.cdf(forms, &nd.env)
				for j, want := range cum {
					got := d.at(j)
					if i == 0 && math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s, site 0: form %d is %v, running sum %v", c.name, j, got, want)
					}
					if math.Abs(got-want) > 1e-12*total {
						t.Fatalf("%s, site %d: form %d is %v, running sum %v (total %v)", c.name, i, j, got, want, total)
					}
					worst = max(worst, math.Abs(got-want)/total)
				}
				if i == 0 {
					continue
				}
				formTotal := d.at(m - 1)
				for range uniforms / envs {
					u := rng.Float64()
					if d.search(u*formTotal) != min(sort.SearchFloat64s(cum, u*total), m-1) {
						mismatches++
					}
				}
			}
			t.Logf("%s (m = %d), site %d: forms within %.2g of the total", c.name, m, i, worst)
			if mismatches > 0 {
				t.Errorf("%s, site %d: %d of %d draws differ from the running sum's", c.name, i, mismatches, uniforms)
			}
		}
	}
}
