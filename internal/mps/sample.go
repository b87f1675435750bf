package mps

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"sort"
)

// Step 2 walks the chain's sites left to right, keeping the distinct
// prefixes drawn so far as nodes. A prefix's weight for candidate s is a
// Hermitian form in the environment it leaves, so the total weight of
// candidates 0..j is that form in the cumulative Gram matrix C_j
// (site.forms). expand builds a site's forms once and draws each sample by
// binary search over j, O(dl²·log m), on the caller's goroutine, in parent
// order from the caller's rng. The tail argmax and the beam contract every
// node with every candidate, m·dl·dr complex products per node; that work
// never touches the random source and runs on up to GOMAXPROCS goroutines
// (forEach), and the beam's selection consumes it in node order. So the
// random sequence, and every output, is the same at any core count.
//
// The contraction kernels below perform exactly the float operations of
// the plain loops in reference_test.go, in the same order, so their
// results are bit-identical to them (TestMatchesReference). The draws read
// the reference's cumulative weights through another summation: bit for
// bit at site 0, whose environment is [1], and within ~1e-13 of the total
// weight elsewhere, so a draw could differ only where a uniform lands that
// close to a boundary (TestDrawMatchesRunningSum).

// node is one distinct prefix: the environment it leaves on the bond to
// its right, its parent (an index into the previous site's nodes) and its
// own index at this site.
type node struct {
	env    [4]complex128 // bond dimensions are at most 4
	parent int32
	s      int32
	count  int     // samples drawn through this prefix; 1 in a beam
	w      float64 // in a beam, the prefix's weight Σ_r |env[r]|²
}

// nodeBlock is how many beams share one parallel weight pass before the
// selection consumes their weights in order, which bounds the beam's
// weight scratch at nodeBlock·m floats; expand polls done every nodeBlock
// parents.
const nodeBlock = 32

// scratch holds the buffers a sampling or beam pass reuses at every site:
// a beam block's weights or a site's cumulative forms, and the draws.
type scratch struct {
	f     []float64
	draws []int32
}

// floats returns n floats of scratch.
func (sc *scratch) floats(n int) []float64 {
	if cap(sc.f) < n {
		sc.f = make([]float64, n)
	}
	return sc.f[:n]
}

// SampleBestTail draws k samples from p ∝ |trace value|² (perfect MPS
// sampling) through sites 1..l−1 and completes each distinct prefix with
// the argmax over the last site's physical index instead of a random draw.
// The amplitude of a completion is the exact trace value, so the argmax is
// the best completion for that prefix at no extra cost — a strict quality
// improvement over pure sampling when the caller wants the maximum-|trace|
// configuration. envCap bounds the number of concurrently tracked distinct
// prefixes (0 = unlimited); when exceeded, the lowest-count groups are
// dropped, which biases the search slightly toward high-probability
// sequences — acceptable for a search heuristic.
func (c *Chain) SampleBestTail(rng *rand.Rand, k, envCap int) []Sampled {
	return c.SampleBestTailUntil(nil, rng, k, envCap)
}

// SampleBestTailUntil is SampleBestTail that gives up once done is closed:
// it polls done between chunks of prefixes and then returns nil. On two
// sites or more it is DrawUntil followed by CompleteUntil.
func (c *Chain) SampleBestTailUntil(done <-chan struct{}, rng *rand.Rand, k, envCap int) []Sampled {
	if c.norm2 <= 0 || k <= 0 {
		return nil
	}
	if len(c.sites) == 1 {
		return c.BeamUntil(done, min(k, c.sites[0].m))
	}
	d, ok := c.DrawUntil(done, rng, k, envCap)
	if !ok {
		return nil
	}
	return d.CompleteUntil(done)
}

// Drawn is a SampleBestTail pass stopped before its tail: the distinct
// prefixes drawn through every site but the last, and the last site,
// which completes them. It keeps none of the chain's other sites.
type Drawn struct {
	levels   [][]node // each drawn site's distinct prefixes
	prefixes []node   // the prefixes to complete
	last     site
}

// DrawUntil is SampleBestTail's draw: k samples through every site but
// the last, from rng, exactly as SampleBestTail draws them; false if done
// was closed first. On a chain of norm 0, or for k ≤ 0, it draws nothing.
// On a one-site chain the one prefix is the empty one.
func (c *Chain) DrawUntil(done <-chan struct{}, rng *rand.Rand, k, envCap int) (Drawn, bool) {
	d := Drawn{last: c.sites[len(c.sites)-1]}
	if c.norm2 <= 0 || k <= 0 {
		return d, true
	}
	levels, ok := c.draw(done, rng, k, envCap, len(c.sites)-1)
	if !ok {
		return Drawn{}, false
	}
	d.levels = levels
	if len(levels) == 0 {
		d.prefixes = []node{{env: [4]complex128{1}, count: k}}
	} else {
		d.prefixes = levels[len(levels)-1]
	}
	return d, true
}

// Len returns the number of distinct prefixes drawn: CompleteUntil
// completes each into one configuration.
func (d Drawn) Len() int { return len(d.prefixes) }

// CompleteUntil is SampleBestTail's tail: it completes each drawn prefix
// with the argmax over the last site and returns the configurations, or
// nil if done was closed first. It consumes no random draws.
func (d Drawn) CompleteUntil(done <-chan struct{}) []Sampled {
	tails := make([]node, len(d.prefixes))
	if !forEach(done, len(tails), func(i int) {
		s, amp := d.last.best(&d.prefixes[i].env)
		tails[i] = node{env: [4]complex128{amp}, parent: int32(i), s: int32(s), count: d.prefixes[i].count}
	}) {
		return nil
	}
	tails = slices.DeleteFunc(tails, func(t node) bool { return t.s < 0 })
	return sampled(append(d.levels, tails))
}

// Beam runs a deterministic beam search for the configurations with the
// largest |trace value|, keeping `width` prefixes per site. Returned
// entries have Count = 1 and are sorted by decreasing |Trace|.
func (c *Chain) Beam(width int) []Sampled {
	return c.BeamUntil(nil, width)
}

// BeamUntil is Beam that gives up once done is closed: it polls done
// between chunks of beams and then returns nil.
func (c *Chain) BeamUntil(done <-chan struct{}, width int) []Sampled {
	if width <= 0 {
		return nil
	}
	levels := make([][]node, 0, len(c.sites))
	beams := []node{{env: [4]complex128{1}, count: 1}}
	var sc scratch
	for i := range c.sites {
		st := &c.sites[i]
		m := st.m
		// Stream every (beam, s) candidate, in order, through a selection
		// of fixed width: once it is full, a heavier candidate replaces the
		// first of the lightest.
		next := make([]node, 0, width)
		worst := math.Inf(-1)
		for lo := 0; lo < len(beams); lo += nodeBlock {
			block := beams[lo:min(lo+nodeBlock, len(beams))]
			ws := sc.floats(len(block) * m)
			if !forEach(done, len(block), func(j int) { st.weights(&block[j].env, ws[j*m:(j+1)*m]) }) {
				return nil
			}
			for j := range block {
				for s, w := range ws[j*m : (j+1)*m] {
					full := len(next) == width
					if full && w <= worst {
						continue
					}
					e := node{env: st.contract(&block[j].env, s), parent: int32(lo + j), s: int32(s), count: 1, w: w}
					if !full {
						next = append(next, e)
						if len(next) == width {
							_, worst = lightest(next)
						}
						continue
					}
					k, _ := lightest(next)
					next[k] = e
					_, worst = lightest(next)
				}
			}
		}
		if len(next) == 0 {
			return nil
		}
		levels = append(levels, next)
		beams = next
	}
	sort.Slice(beams, func(a, b int) bool { return beams[a].w > beams[b].w })
	return sampled(levels)
}

// lightest returns the index of the first node of least weight, and that
// weight (+Inf if there is none).
func lightest(nodes []node) (int, float64) {
	k, w := 0, math.Inf(1)
	for j, x := range nodes {
		if x.w < w {
			k, w = j, x.w
		}
	}
	return k, w
}

// draw samples sites [0, n) for k samples and returns each site's
// distinct prefixes, or false if done was closed first.
func (c *Chain) draw(done <-chan struct{}, rng *rand.Rand, k, envCap, n int) ([][]node, bool) {
	levels := make([][]node, 0, n+1)
	nodes := []node{{env: [4]complex128{1}, count: k}}
	var sc scratch
	for i := range n {
		next, ok := c.sites[i].expand(done, rng, nodes, &sc)
		if !ok {
			return nil, false
		}
		if envCap > 0 && len(next) > envCap {
			sort.Slice(next, func(a, b int) bool { return next[a].count > next[b].count })
			next = next[:envCap]
		}
		levels = append(levels, next)
		nodes = next
	}
	return levels, true
}

// expand draws every parent's samples through site st, on the caller's
// goroutine: it builds the site's cumulative forms, then draws each
// parent's count samples, in parent order, and emits one child per
// distinct index drawn, in increasing index order. It polls done every
// nodeBlock parents and reports false if it was closed.
func (st *site) expand(done <-chan struct{}, rng *rand.Rand, parents []node, sc *scratch) ([]node, bool) {
	forms := sc.floats(st.m * st.dl * st.dl)
	st.forms(forms)
	var next []node
	for i := range parents {
		if i%nodeBlock == 0 && closed(done) {
			return nil, false
		}
		p := &parents[i]
		c := st.cdf(forms, &p.env)
		total := c.at(st.m - 1)
		if total <= 0 {
			continue
		}
		draws := sc.draws[:0]
		for range p.count {
			draws = append(draws, int32(c.search(rng.Float64()*total)))
		}
		slices.Sort(draws)
		for a := 0; a < len(draws); {
			b := a + 1
			for b < len(draws) && draws[b] == draws[a] {
				b++
			}
			s := draws[a]
			next = append(next, node{env: st.contract(&p.env, int(s)), parent: int32(i), s: s, count: b - a})
			a = b
		}
		sc.draws = draws
	}
	return next, true
}

// forms fills f, m·dl² floats, with the site's cumulative Gram forms.
// Candidate s's weight under an environment env, Σ_r |contract(env, s)[r]|²,
// is Σ_{l,l'} env[l]·conj(env[l'])·G_s[l][l'] with the Gram matrix
// G_s[l][l'] = Σ_r data[s,l,r]·conj(data[s,l',r]), so C_j = Σ_{s≤j} G_s
// read at env is the total weight of candidates 0..j (cdf). The dl² floats
// from f[j·dl²] pack C_j's real diagonal, then the real and imaginary parts
// of each entry l < l' in order. Each G_s[l][l] is summed as weights sums a
// candidate's weight, so at dl = 1 the forms are the running sums of
// weights at env [1], bit for bit.
func (st *site) forms(f []float64) {
	dl, dr, n := st.dl, st.dr, st.dl*st.dl
	var acc [16]float64
	for s := 0; s < st.m; s++ {
		b := st.data[s*dl*dr : (s+1)*dl*dr]
		for l := 0; l < dl; l++ {
			g := 0.0
			for _, x := range b[l*dr : (l+1)*dr] {
				g += abs2(x)
			}
			acc[l] += g
		}
		k := dl
		for l := 0; l < dl; l++ {
			for l2 := l + 1; l2 < dl; l2++ {
				var g complex128
				for r := 0; r < dr; r++ {
					g += b[l*dr+r] * cmplx.Conj(b[l2*dr+r])
				}
				acc[k] += real(g)
				acc[k+1] += imag(g)
				k += 2
			}
		}
		copy(f[s*n:(s+1)*n], acc[:n])
	}
}

// cdf is the cumulative weight of a site's candidates under one prefix
// environment, read from the site's forms.
type cdf struct {
	forms []float64   // m packed forms of n floats (site.forms)
	n     int         // dl²
	coef  [16]float64 // what each packed float contributes at the environment
}

// cdf returns the cumulative weights at env over forms: the coefficient of
// a diagonal entry is |env[l]|², and those of the real and imaginary parts
// of entry (l, l') are 2·Re and −2·Im of env[l]·conj(env[l']), which adds
// each off-diagonal entry and its conjugate.
func (st *site) cdf(forms []float64, env *[4]complex128) cdf {
	c := cdf{forms: forms, n: st.dl * st.dl}
	for l := 0; l < st.dl; l++ {
		c.coef[l] = abs2(env[l])
	}
	k := st.dl
	for l := 0; l < st.dl; l++ {
		for l2 := l + 1; l2 < st.dl; l2++ {
			p := env[l] * cmplx.Conj(env[l2])
			c.coef[k], c.coef[k+1] = 2*real(p), -2*imag(p)
			k += 2
		}
	}
	return c
}

// at returns the total weight of candidates 0..j.
func (c *cdf) at(j int) float64 {
	x := 0.0
	for i, f := range c.forms[j*c.n : (j+1)*c.n] {
		x += c.coef[i] * f
	}
	return x
}

// search returns the first candidate j whose cumulative weight reaches u —
// the index sort.SearchFloat64s finds over running sums — or the last
// candidate if none before it does.
func (c *cdf) search(u float64) int {
	lo, hi := 0, len(c.forms)/c.n-1
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if c.at(h) < u {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// sampled returns one Sampled per node of the last level, its indices
// traced back through the parents into one shared backing array.
func sampled(levels [][]node) []Sampled {
	n := len(levels)
	last := levels[n-1]
	idx := make([]int32, len(last)*n)
	out := make([]Sampled, len(last))
	for i := range last {
		p := idx[i*n : (i+1)*n : (i+1)*n]
		for l, j := n-1, int32(i); l >= 0; l-- {
			p[l] = levels[l][j].s
			j = levels[l][j].parent
		}
		out[i] = Sampled{Indices: p, Trace: last[i].env[0], Count: last[i].count}
	}
	return out
}

// contract returns the environment a prefix with environment env leaves
// after candidate s: v[r] = Σ_l env[l]·data[s,l,r], skipping zero entries
// of env as the reference does.
func (st *site) contract(env *[4]complex128, s int) [4]complex128 {
	var v [4]complex128
	dl, dr := st.dl, st.dr
	base := s * dl * dr
	for l := 0; l < dl; l++ {
		e := env[l]
		if e == 0 {
			continue
		}
		for r, x := range st.data[base+l*dr : base+(l+1)*dr] {
			v[r] += e * x
		}
	}
	return v
}

// weights sets w[s], for every candidate s, to the weight of extending a
// prefix with environment env by s: Σ_r |contract(env, s)[r]|². Unrolled
// kernels serve the bond shapes inside (4×4) and at the end (4×1) of
// trasyn's chains when env has no zero entry to skip.
func (st *site) weights(env *[4]complex128, w []float64) {
	e0, e1, e2, e3 := env[0], env[1], env[2], env[3]
	dense := e0 != 0 && e1 != 0 && e2 != 0 && e3 != 0
	switch {
	case dense && st.dl == 4 && st.dr == 4:
		for s := range w {
			d := (*[16]complex128)(st.data[16*s:])
			x := 0.0
			x += abs2(dot4(e0, e1, e2, e3, d[0], d[4], d[8], d[12]))
			x += abs2(dot4(e0, e1, e2, e3, d[1], d[5], d[9], d[13]))
			x += abs2(dot4(e0, e1, e2, e3, d[2], d[6], d[10], d[14]))
			x += abs2(dot4(e0, e1, e2, e3, d[3], d[7], d[11], d[15]))
			w[s] = x
		}
	case dense && st.dl == 4 && st.dr == 1:
		for s := range w {
			d := (*[4]complex128)(st.data[4*s:])
			x := 0.0
			x += abs2(dot4(e0, e1, e2, e3, d[0], d[1], d[2], d[3]))
			w[s] = x
		}
	default:
		for s := range w {
			v := st.contract(env, s)
			x := 0.0
			for _, y := range v[:st.dr] {
				x += abs2(y)
			}
			w[s] = x
		}
	}
}

// best returns the candidate that completes a prefix with environment env
// with the largest |amplitude|² — the first on ties — and its amplitude
// Σ_l env[l]·data[s,l,0]; -1 if the site has no candidate. It takes the
// site by value: CompleteUntil's workers call it on a Drawn's copy of the
// site, which a pointer receiver would move to the heap on every attempt.
func (st site) best(env *[4]complex128) (int, complex128) {
	bestS, bestW := -1, -1.0
	var bestAmp complex128
	if st.dl == 4 && st.dr == 1 {
		e0, e1, e2, e3 := env[0], env[1], env[2], env[3]
		for s := 0; s < st.m; s++ {
			d := (*[4]complex128)(st.data[4*s:])
			amp := dot4(e0, e1, e2, e3, d[0], d[1], d[2], d[3])
			if w := abs2(amp); w > bestW {
				bestS, bestW, bestAmp = s, w, amp
			}
		}
		return bestS, bestAmp
	}
	for s := 0; s < st.m; s++ {
		var amp complex128
		base := s * st.dl * st.dr
		for l := 0; l < st.dl; l++ {
			amp += env[l] * st.data[base+l*st.dr]
		}
		if w := abs2(amp); w > bestW {
			bestS, bestW, bestAmp = s, w, amp
		}
	}
	return bestS, bestAmp
}

// dot4 is Σ_l e_l·x_l accumulated from zero in index order, as the
// reference loops accumulate.
func dot4(e0, e1, e2, e3, x0, x1, x2, x3 complex128) complex128 {
	var v complex128
	v += e0 * x0
	v += e1 * x1
	v += e2 * x2
	v += e3 * x3
	return v
}

func abs2(x complex128) float64 { return real(x)*real(x) + imag(x)*imag(x) }
