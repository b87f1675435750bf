package mps

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/gates"
	"repro/internal/qmat"
)

// Norm2 returns Σ |trace value|² over all configurations.
func (c *Chain) Norm2() float64 { return c.norm2 }

// Eval contracts the chain at a specific configuration, returning the exact
// trace value Tr(U†·M_{s1}···M_{sl}) for that configuration.
func (c *Chain) Eval(idx []int32) complex128 {
	if len(idx) != len(c.sites) {
		panic("mps: wrong index length")
	}
	env := []complex128{1}
	for i, st := range c.sites {
		s := int(idx[i])
		next := make([]complex128, st.dr)
		base := s * st.dl * st.dr
		for l := 0; l < st.dl; l++ {
			e := env[l]
			if e == 0 {
				continue
			}
			row := st.data[base+l*st.dr : base+(l+1)*st.dr]
			for r, v := range row {
				next[r] += e * v
			}
		}
		env = next
	}
	return env[0]
}

// Best returns the sampled configuration with the largest |Trace| and the
// corresponding absolute trace value; ok=false for an empty slice.
func Best(samples []Sampled) (Sampled, bool) {
	if len(samples) == 0 {
		return Sampled{}, false
	}
	best := samples[0]
	bv := cmplx.Abs(best.Trace)
	for _, s := range samples[1:] {
		if v := cmplx.Abs(s.Trace); v > bv {
			best, bv = s, v
		}
	}
	return best, true
}

// randomSites builds small random unitary candidate lists.
func randomSites(rng *rand.Rand, dims ...int) [][]qmat.M2 {
	sites := make([][]qmat.M2, len(dims))
	for i, d := range dims {
		sites[i] = make([]qmat.M2, d)
		for j := range sites[i] {
			sites[i][j] = qmat.HaarRandom(rng)
		}
	}
	return sites
}

// trasynSites returns n sites that each draw from the T ≤ maxT
// enumeration, as trasyn's chains do.
func trasynSites(maxT, n int) [][]qmat.M2 {
	es := gates.Shared(maxT).Collect(0, maxT)
	mats := make([]qmat.M2, len(es))
	for i, e := range es {
		mats[i] = e.M
	}
	sites := make([][]qmat.M2, n)
	for i := range sites {
		sites[i] = mats
	}
	return sites
}

// sameChain describes the first difference between two chains, compared
// bit for bit — every site's shape, the IEEE-754 bits of the real and
// imaginary part of every element, and norm² — or returns "" if there is
// none.
func sameChain(got, want *Chain) string {
	if len(got.sites) != len(want.sites) {
		return fmt.Sprintf("%d sites, want %d", len(got.sites), len(want.sites))
	}
	for i, g := range got.sites {
		w := want.sites[i]
		if g.m != w.m || g.dl != w.dl || g.dr != w.dr || len(g.data) != len(w.data) {
			return fmt.Sprintf("site %d is m %d, %d×%d with %d elements; want m %d, %d×%d with %d",
				i, g.m, g.dl, g.dr, len(g.data), w.m, w.dl, w.dr, len(w.data))
		}
		for j, x := range g.data {
			y := w.data[j]
			if math.Float64bits(real(x)) != math.Float64bits(real(y)) ||
				math.Float64bits(imag(x)) != math.Float64bits(imag(y)) {
				return fmt.Sprintf("site %d, element %d is %v, want %v", i, j, x, y)
			}
		}
	}
	if math.Float64bits(got.norm2) != math.Float64bits(want.norm2) {
		return fmt.Sprintf("norm² is %v, want %v", got.norm2, want.norm2)
	}
	return ""
}

// TestCanonicalizeMatchesReference: Build leaves the chain the linalg
// sweep of reference_test.go leaves, bit for bit, on trasyn's chains — 1
// to 4 sites over the T ≤ 5 enumeration and 3 sites over T ≤ 7, each
// toward several Haar targets — and on random chains that take the
// sweep's two rare branches: a site with fewer rows than its left bond
// (m·dr < dl), which shrinks that bond, and a rank-deficient site
// (repeated candidates), whose basis orthoFill completes.
func TestCanonicalizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	type chainCase struct {
		name  string
		sites [][]qmat.M2
	}
	var cases []chainCase
	for _, c := range []struct{ maxT, n int }{{5, 1}, {5, 2}, {5, 3}, {5, 4}, {7, 3}} {
		cases = append(cases, chainCase{fmt.Sprintf("T≤%d, %d sites", c.maxT, c.n), trasynSites(c.maxT, c.n)})
	}
	// A last site with m < 4 shrinks its left bond to m, which can leave
	// the site to its left short as well.
	for _, dims := range [][]int{{3, 2, 1}, {2, 1, 1}, {4, 3, 2}, {3, 1, 4, 2}, {1, 2, 1, 3}} {
		cases = append(cases, chainCase{fmt.Sprintf("random %v", dims), randomSites(rng, dims...)})
	}
	a, b := qmat.HaarRandom(rng), qmat.HaarRandom(rng)
	repeat := func(ms ...qmat.M2) []qmat.M2 {
		var out []qmat.M2
		for range 3 {
			out = append(out, ms...)
		}
		return out
	}
	cases = append(cases,
		chainCase{"last site of rank 1", append(randomSites(rng, 3, 4), repeat(a, a))},
		chainCase{"last site of rank 2", append(randomSites(rng, 3, 4), repeat(a, b))},
		chainCase{"middle site of rank 1 over a bond of 1", [][]qmat.M2{randomSites(rng, 3)[0], repeat(b, b), randomSites(rng, 1)[0]}},
	)
	for _, c := range cases {
		for range 3 {
			u := qmat.HaarRandom(rng)
			want := newChain(u, c.sites)
			want.refCanonicalize()
			if d := sameChain(Build(u, c.sites), want); d != "" {
				t.Errorf("%s: %s", c.name, d)
			}
		}
	}
}

// bruteTrace computes Tr(U†·M_{s1}···M_{sl}) directly.
func bruteTrace(u qmat.M2, sites [][]qmat.M2, idx []int32) complex128 {
	v := qmat.I2()
	for i, s := range idx {
		v = qmat.Mul(v, sites[i][s])
	}
	return qmat.HSTrace(u, v)
}

// TestEvalMatchesBruteForce: the MPS must reproduce every trace value
// exactly — the central correctness property of step 1.
func TestEvalMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][]int{{5}, {3, 4}, {2, 3, 4}, {3, 2, 2, 3}} {
		sites := randomSites(rng, dims...)
		u := qmat.HaarRandom(rng)
		chain := Build(u, sites)
		// Exhaustive over all configurations.
		idx := make([]int32, len(dims))
		var walk func(site int)
		walk = func(site int) {
			if site == len(dims) {
				got := chain.Eval(idx)
				want := bruteTrace(u, sites, idx)
				if cmplx.Abs(got-want) > 1e-9 {
					t.Fatalf("dims %v idx %v: Eval=%v brute=%v", dims, idx, got, want)
				}
				return
			}
			for s := 0; s < dims[site]; s++ {
				idx[site] = int32(s)
				walk(site + 1)
			}
		}
		walk(0)
	}
}

// TestNorm2MatchesSum: chain.Norm2 must equal Σ|T|² over all configs
// (guaranteed by right-canonical form).
func TestNorm2MatchesSum(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dims := []int{3, 4, 2}
	sites := randomSites(rng, dims...)
	u := qmat.HaarRandom(rng)
	chain := Build(u, sites)
	sum := 0.0
	for a := 0; a < 3; a++ {
		for b := 0; b < 4; b++ {
			for c := 0; c < 2; c++ {
				v := bruteTrace(u, sites, []int32{int32(a), int32(b), int32(c)})
				sum += real(v)*real(v) + imag(v)*imag(v)
			}
		}
	}
	if math.Abs(chain.Norm2()-sum) > 1e-9*(1+sum) {
		t.Fatalf("Norm2 = %v, brute sum = %v", chain.Norm2(), sum)
	}
}

// TestPrefixWeightsUniform: on trasyn's chains — T ≤ 5 with 2 to 4 sites
// and T ≤ 7 with 3, three Haar targets each — every site-0 candidate
// carries the same weight (its Σ|trace value|² over all completions, read
// from the canonical chain's first site) to within 1e-12 of their mean,
// and norm² is m^l to within 1e-12 relative. The T ≤ k enumeration is a
// union of Clifford cosets, so Σ_s |Tr(A·M_s)|² = m·‖A‖²_F/2 = m for
// every unitary A, and summing out the sites after a prefix multiplies by
// m each time, whatever the prefix (DESIGN.md, trasyn's sampler): the
// draws over prefixes are uniform.
func TestPrefixWeightsUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, c := range []struct{ maxT, n int }{{5, 2}, {5, 3}, {5, 4}, {7, 3}} {
		sites := trasynSites(c.maxT, c.n)
		m := len(sites[0])
		want := math.Pow(float64(m), float64(c.n))
		worstW, worstN := 0.0, 0.0
		for range 3 {
			chain := Build(qmat.HaarRandom(rng), sites)
			worstN = max(worstN, math.Abs(chain.Norm2()-want)/want)
			st := chain.sites[0]
			w := make([]float64, m)
			mean := 0.0
			for s := range w {
				for _, v := range st.data[s*st.dr : (s+1)*st.dr] {
					w[s] += real(v)*real(v) + imag(v)*imag(v)
				}
				mean += w[s] / float64(m)
			}
			for _, ws := range w {
				worstW = max(worstW, math.Abs(ws-mean)/mean)
			}
		}
		t.Logf("T≤%d, %d sites: site-0 weights within %.1e of their mean, norm² within %.1e of m^l", c.maxT, c.n, worstW, worstN)
		if worstW > 1e-12 || worstN > 1e-12 {
			t.Errorf("T≤%d, %d sites: site-0 weights %.1e from their mean, norm² %.1e from m^l = %g; want both within 1e-12",
				c.maxT, c.n, worstW, worstN, want)
		}
	}
}

// TestSampleDistribution: empirical frequencies must approach |T|²/Z.
func TestSampleDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dims := []int{3, 3}
	sites := randomSites(rng, dims...)
	u := qmat.HaarRandom(rng)
	chain := Build(u, sites)
	const k = 200000
	samples := chain.Sample(rng, k, 0)
	freq := map[[2]int32]float64{}
	for _, s := range samples {
		freq[[2]int32{s.Indices[0], s.Indices[1]}] += float64(s.Count) / k
		// Trace must be exact for each sample.
		want := bruteTrace(u, sites, s.Indices)
		if cmplx.Abs(s.Trace-want) > 1e-9 {
			t.Fatalf("sampled trace mismatch: %v vs %v", s.Trace, want)
		}
	}
	z := chain.Norm2()
	for a := int32(0); a < 3; a++ {
		for b := int32(0); b < 3; b++ {
			v := bruteTrace(u, sites, []int32{a, b})
			p := (real(v)*real(v) + imag(v)*imag(v)) / z
			if math.Abs(freq[[2]int32{a, b}]-p) > 0.01 {
				t.Fatalf("config (%d,%d): freq %v vs p %v", a, b, freq[[2]int32{a, b}], p)
			}
		}
	}
}

// TestSampleCountsConserved: the distinct samples must account for all k.
func TestSampleCountsConserved(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sites := randomSites(rng, 4, 5, 3)
	chain := Build(qmat.HaarRandom(rng), sites)
	samples := chain.Sample(rng, 1234, 0)
	total := 0
	for _, s := range samples {
		total += s.Count
	}
	if total != 1234 {
		t.Fatalf("sample counts sum to %d, want 1234", total)
	}
}

// TestBeamFindsArgmax: with full width the beam must find the global
// optimum of |T|.
func TestBeamFindsArgmax(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dims := []int{4, 5, 3}
	sites := randomSites(rng, dims...)
	u := qmat.HaarRandom(rng)
	chain := Build(u, sites)
	res := chain.Beam(4 * 5 * 3)
	if len(res) == 0 {
		t.Fatal("beam returned nothing")
	}
	best := res[0]
	// Brute force argmax.
	bestBrute := -1.0
	for a := 0; a < dims[0]; a++ {
		for b := 0; b < dims[1]; b++ {
			for c := 0; c < dims[2]; c++ {
				v := cmplx.Abs(bruteTrace(u, sites, []int32{int32(a), int32(b), int32(c)}))
				if v > bestBrute {
					bestBrute = v
				}
			}
		}
	}
	if math.Abs(cmplx.Abs(best.Trace)-bestBrute) > 1e-9 {
		t.Fatalf("beam best %v vs brute best %v", cmplx.Abs(best.Trace), bestBrute)
	}
	// Results must be sorted decreasing.
	for i := 1; i < len(res); i++ {
		if cmplx.Abs(res[i].Trace) > cmplx.Abs(res[i-1].Trace)+1e-12 {
			t.Fatal("beam results not sorted")
		}
	}
}

// TestSingleSiteChain: l=1 degenerates to a direct lookup table.
func TestSingleSiteChain(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sites := randomSites(rng, 20)
	u := qmat.HaarRandom(rng)
	chain := Build(u, sites)
	for s := int32(0); s < 20; s++ {
		got := chain.Eval([]int32{s})
		want := bruteTrace(u, sites, []int32{s})
		if cmplx.Abs(got-want) > 1e-9 {
			t.Fatalf("single-site Eval mismatch at %d", s)
		}
	}
	res := chain.Beam(5)
	if len(res) != 5 {
		t.Fatalf("beam width 5 returned %d", len(res))
	}
}

func TestEnvCapLimitsGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sites := randomSites(rng, 10, 10, 10)
	chain := Build(qmat.HaarRandom(rng), sites)
	samples := chain.Sample(rng, 5000, 8)
	if len(samples) > 8 {
		t.Fatalf("envCap violated: %d groups", len(samples))
	}
}

func TestBestHelper(t *testing.T) {
	if _, ok := Best(nil); ok {
		t.Error("Best(nil) should report !ok")
	}
	s := []Sampled{{Trace: 1}, {Trace: 3i}, {Trace: -2}}
	b, ok := Best(s)
	if !ok || cmplx.Abs(b.Trace) != 3 {
		t.Errorf("Best returned %v", b)
	}
}

// BenchmarkBuild: one trasyn chain built and canonicalized toward a Haar
// target, over the T ≤ 5 enumeration with 2, 3 and 4 sites (the trasyn
// backend's default table) and over T ≤ 10 with 3 sites (the paper's m,
// 73,680 candidates). Run it with -benchmem; TestAllocBudget gates the
// bytes and allocations it reports.
func BenchmarkBuild(b *testing.B) {
	for _, c := range []struct{ maxT, n int }{{5, 2}, {5, 3}, {5, 4}, {10, 3}} {
		b.Run(fmt.Sprintf("T%d/sites%d", c.maxT, c.n), func(b *testing.B) {
			sites := trasynSites(c.maxT, c.n)
			u := qmat.HaarRandom(rand.New(rand.NewSource(18)))
			b.ReportAllocs()
			for b.Loop() {
				Build(u, sites)
			}
		})
	}
}

func BenchmarkSample3Sites(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	sites := randomSites(rng, 1000, 1000, 1000)
	chain := Build(qmat.HaarRandom(rng), sites)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chain.Sample(rng, 1000, 64)
	}
}

func BenchmarkBeam3Sites(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	sites := randomSites(rng, 1000, 1000, 1000)
	chain := Build(qmat.HaarRandom(rng), sites)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chain.Beam(64)
	}
}
