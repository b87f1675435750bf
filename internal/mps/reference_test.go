package mps

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/linalg"
)

// refCanonicalize is the plain right-to-left sweep: each site matricized
// into a linalg.Matrix and factored by linalg.LQ, the Gram–Schmidt QR of
// its conjugate transpose. canonicalize must perform the same float
// operations in the same order, so the two leave bit-identical chains
// (TestCanonicalizeMatchesReference).
func (c *Chain) refCanonicalize() {
	for i := len(c.sites) - 1; i >= 1; i-- {
		st := c.sites[i]
		// Matricize as (dl) × (m·dr).
		mat := linalg.New(st.dl, st.m*st.dr)
		for s := 0; s < st.m; s++ {
			for l := 0; l < st.dl; l++ {
				for r := 0; r < st.dr; r++ {
					mat.Set(l, s*st.dr+r, st.data[s*st.dl*st.dr+l*st.dr+r])
				}
			}
		}
		lm, q := linalg.LQ(mat)
		newDl := q.Rows
		ns := site{m: st.m, dl: newDl, dr: st.dr, data: make([]complex128, st.m*newDl*st.dr)}
		for s := 0; s < st.m; s++ {
			for l := 0; l < newDl; l++ {
				for r := 0; r < st.dr; r++ {
					ns.data[s*newDl*st.dr+l*st.dr+r] = q.At(l, s*st.dr+r)
				}
			}
		}
		c.sites[i] = ns
		// Absorb L (dl_prev_right × newDl) into site i-1's right bond.
		prev := c.sites[i-1]
		np := site{m: prev.m, dl: prev.dl, dr: newDl, data: make([]complex128, prev.m*prev.dl*newDl)}
		for s := 0; s < prev.m; s++ {
			for l := 0; l < prev.dl; l++ {
				for rn := 0; rn < newDl; rn++ {
					var acc complex128
					for r := 0; r < prev.dr; r++ {
						acc += prev.data[s*prev.dl*prev.dr+l*prev.dr+r] * lm.At(r, rn)
					}
					np.data[s*prev.dl*newDl+l*newDl+rn] = acc
				}
			}
		}
		c.sites[i-1] = np
	}
	// Total norm² from the (non-canonical) first site.
	n := 0.0
	for _, v := range c.sites[0].data {
		n += real(v)*real(v) + imag(v)*imag(v)
	}
	c.norm2 = n
}

// The reference sampler: the straightforward loops the kernels in
// sample.go replace, kept here as the only copy. Every kernel must do the
// same float operations in the same order, so each function below and its
// counterpart return bit-identical results for the same chain and seed
// (TestMatchesReference).

type refGroup struct {
	env    []complex128
	prefix []int32
	count  int
}

func (c *Chain) refSample(rng *rand.Rand, k, envCap int) []Sampled {
	if c.norm2 <= 0 || k <= 0 {
		return nil
	}
	groups := c.refDraw(rng, k, envCap, len(c.sites))
	out := make([]Sampled, 0, len(groups))
	for _, g := range groups {
		out = append(out, Sampled{Indices: g.prefix, Trace: g.env[0], Count: g.count})
	}
	return out
}

// refDraw samples sites [0, n) for k samples, grouped by distinct prefix.
func (c *Chain) refDraw(rng *rand.Rand, k, envCap, n int) []refGroup {
	groups := []refGroup{{env: []complex128{1}, count: k}}
	for i := 0; i < n; i++ {
		st := &c.sites[i]
		var next []refGroup
		for _, g := range groups {
			next = append(next, refExpandGroup(rng, st, g)...)
		}
		if envCap > 0 && len(next) > envCap {
			sort.Slice(next, func(a, b int) bool { return next[a].count > next[b].count })
			next = next[:envCap]
		}
		groups = next
	}
	return groups
}

func refExpandGroup(rng *rand.Rand, st *site, g refGroup) []refGroup {
	m, dl, dr := st.m, st.dl, st.dr
	weights := make([]float64, m)
	total := 0.0
	var v [4]complex128
	env := g.env
	for s := 0; s < m; s++ {
		base := s * dl * dr
		for r := 0; r < dr; r++ {
			v[r] = 0
		}
		for l := 0; l < dl; l++ {
			e := env[l]
			if e == 0 {
				continue
			}
			row := st.data[base+l*dr : base+(l+1)*dr]
			for r, x := range row {
				v[r] += e * x
			}
		}
		w := 0.0
		for r := 0; r < dr; r++ {
			x := v[r]
			w += real(x)*real(x) + imag(x)*imag(x)
		}
		weights[s] = w
		total += w
	}
	if total <= 0 {
		return nil
	}
	counts := refMultinomial(rng, weights, total, g.count)
	out := make([]refGroup, 0, len(counts))
	for _, sc := range counts {
		s, n := sc[0], sc[1]
		ev := make([]complex128, dr)
		base := s * dl * dr
		for l := 0; l < dl; l++ {
			e := env[l]
			if e == 0 {
				continue
			}
			row := st.data[base+l*dr : base+(l+1)*dr]
			for r, x := range row {
				ev[r] += e * x
			}
		}
		prefix := make([]int32, len(g.prefix)+1)
		copy(prefix, g.prefix)
		prefix[len(g.prefix)] = int32(s)
		out = append(out, refGroup{env: ev, prefix: prefix, count: n})
	}
	return out
}

// refMultinomial returns (index, count) pairs in increasing index order.
func refMultinomial(rng *rand.Rand, w []float64, total float64, n int) [][2]int {
	cum := make([]float64, len(w))
	acc := 0.0
	for i, x := range w {
		acc += x
		cum[i] = acc
	}
	m := make(map[int]int, min(n, 16))
	for i := 0; i < n; i++ {
		u := rng.Float64() * total
		j := sort.SearchFloat64s(cum, u)
		if j >= len(w) {
			j = len(w) - 1
		}
		m[j]++
	}
	out := make([][2]int, 0, len(m))
	for idx, cnt := range m {
		out = append(out, [2]int{idx, cnt})
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

func (c *Chain) refSampleBestTail(rng *rand.Rand, k, envCap int) []Sampled {
	if c.norm2 <= 0 || k <= 0 {
		return nil
	}
	if len(c.sites) == 1 {
		return c.refBeam(min(k, c.sites[0].m))
	}
	groups := c.refDraw(rng, k, envCap, len(c.sites)-1)
	last := &c.sites[len(c.sites)-1]
	out := make([]Sampled, 0, len(groups))
	for _, g := range groups {
		bestS, bestW := -1, -1.0
		var bestAmp complex128
		for s := 0; s < last.m; s++ {
			var amp complex128
			base := s * last.dl * last.dr
			for l := 0; l < last.dl; l++ {
				amp += g.env[l] * last.data[base+l*last.dr]
			}
			w := real(amp)*real(amp) + imag(amp)*imag(amp)
			if w > bestW {
				bestS, bestW, bestAmp = s, w, amp
			}
		}
		if bestS < 0 {
			continue
		}
		idx := make([]int32, len(g.prefix)+1)
		copy(idx, g.prefix)
		idx[len(g.prefix)] = int32(bestS)
		out = append(out, Sampled{Indices: idx, Trace: bestAmp, Count: g.count})
	}
	return out
}

func (c *Chain) refBeam(width int) []Sampled {
	type beamEntry struct {
		env    []complex128
		prefix []int32
		w      float64
	}
	beams := []beamEntry{{env: []complex128{1}}}
	for i := range c.sites {
		st := &c.sites[i]
		m, dl, dr := st.m, st.dl, st.dr
		var next []beamEntry
		worst := math.Inf(-1)
		push := func(e beamEntry) {
			if len(next) < width {
				next = append(next, e)
				if e.w < worst || len(next) == 1 {
					worst = e.w
				}
				if len(next) == width {
					worst = math.Inf(1)
					for _, x := range next {
						if x.w < worst {
							worst = x.w
						}
					}
				}
				return
			}
			if e.w <= worst {
				return
			}
			wi, wv := 0, math.Inf(1)
			for j, x := range next {
				if x.w < wv {
					wi, wv = j, x.w
				}
			}
			next[wi] = e
			worst = math.Inf(1)
			for _, x := range next {
				if x.w < worst {
					worst = x.w
				}
			}
		}
		for _, b := range beams {
			for s := 0; s < m; s++ {
				v := make([]complex128, dr)
				base := s * dl * dr
				for l := 0; l < dl; l++ {
					e := b.env[l]
					if e == 0 {
						continue
					}
					row := st.data[base+l*dr : base+(l+1)*dr]
					for r, x := range row {
						v[r] += e * x
					}
				}
				w := 0.0
				for _, x := range v {
					w += real(x)*real(x) + imag(x)*imag(x)
				}
				if len(next) == width && w <= worst {
					continue
				}
				prefix := make([]int32, len(b.prefix)+1)
				copy(prefix, b.prefix)
				prefix[len(b.prefix)] = int32(s)
				push(beamEntry{env: v, prefix: prefix, w: w})
			}
		}
		beams = next
		if len(beams) == 0 {
			return nil
		}
	}
	sort.Slice(beams, func(a, b int) bool { return beams[a].w > beams[b].w })
	out := make([]Sampled, len(beams))
	for i, b := range beams {
		out[i] = Sampled{Indices: b.prefix, Trace: b.env[0], Count: 1}
	}
	return out
}
