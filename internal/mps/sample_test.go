package mps

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gates"
	"repro/internal/qmat"
)

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
	es := gates.Shared(5).Collect(0, 5)
	mats := make([]qmat.M2, len(es))
	for i, e := range es {
		mats[i] = e.M
	}
	rng := rand.New(rand.NewSource(12))
	type chainCase struct {
		name     string
		chain    *Chain
		k, width int
	}
	var cases []chainCase
	for n := 1; n <= 4; n++ {
		sites := make([][]qmat.M2, n)
		for i := range sites {
			sites[i] = mats
		}
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
