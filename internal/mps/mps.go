// Package mps implements steps 1 and 2 of trasyn: building the matrix
// product state whose entries are the trace values Tr(U†·M_{s1}···M_{sl})
// for every combination of candidate matrices, bringing it to canonical
// form, and sampling high-trace-value gate sequences from it.
//
// The trace network is a ring (the trace couples the last matrix back to
// the first). We cut the ring by fusing the trace index into the bond, so
// bond dimensions are at most 4 = 2·2 and the whole chain canonicalizes
// with tiny LQ factorizations — the algebraic equivalent of the paper's
// "shift the target's dimension by contractions and SVDs".
package mps

import (
	"repro/internal/linalg"
	"repro/internal/qmat"
)

// site is one canonicalized MPS tensor with layout data[s*dl*dr + l*dr + r].
type site struct {
	m      int // physical dimension (number of candidate matrices)
	dl, dr int // bond dimensions
	data   []complex128
}

// Chain is the canonicalized trace-value MPS.
type Chain struct {
	sites []site
	norm2 float64 // Σ |trace value|² over all configurations
}

// Build constructs the trace-value MPS for the target unitary and the given
// per-site candidate matrix lists. len(siteMats) ≥ 1; each site must be
// non-empty.
func Build(target qmat.M2, siteMats [][]qmat.M2) *Chain {
	l := len(siteMats)
	if l == 0 {
		panic("mps: no sites")
	}
	ud := qmat.Dagger(target)
	c := &Chain{sites: make([]site, l)}
	if l == 1 {
		ms := siteMats[0]
		st := site{m: len(ms), dl: 1, dr: 1, data: make([]complex128, len(ms))}
		for s, mm := range ms {
			st.data[s] = qmat.Trace(qmat.Mul(mm, ud))
		}
		c.sites[0] = st
		c.canonicalize()
		return c
	}
	for i, ms := range siteMats {
		switch {
		case i == 0:
			// A[s, 1, (a1,a0)] = M_s[a0, a1]; bond index = a1*2 + a0.
			st := site{m: len(ms), dl: 1, dr: 4, data: make([]complex128, len(ms)*4)}
			for s, mm := range ms {
				for a0 := 0; a0 < 2; a0++ {
					for a1 := 0; a1 < 2; a1++ {
						st.data[s*4+a1*2+a0] = mm[a0][a1]
					}
				}
			}
			c.sites[i] = st
		case i == l-1:
			// A[s, (a,a0), 1] = (M_s·U†)[a, a0].
			st := site{m: len(ms), dl: 4, dr: 1, data: make([]complex128, len(ms)*4)}
			for s, mm := range ms {
				p := qmat.Mul(mm, ud)
				for a := 0; a < 2; a++ {
					for a0 := 0; a0 < 2; a0++ {
						st.data[s*4+a*2+a0] = p[a][a0]
					}
				}
			}
			c.sites[i] = st
		default:
			// A[s, (ap,a0), (an,a0')] = M_s[ap, an]·δ_{a0,a0'}.
			st := site{m: len(ms), dl: 4, dr: 4, data: make([]complex128, len(ms)*16)}
			for s, mm := range ms {
				for ap := 0; ap < 2; ap++ {
					for an := 0; an < 2; an++ {
						for a0 := 0; a0 < 2; a0++ {
							st.data[s*16+(ap*2+a0)*4+an*2+a0] = mm[ap][an]
						}
					}
				}
			}
			c.sites[i] = st
		}
	}
	c.canonicalize()
	return c
}

// canonicalize sweeps right to left, leaving every site but the first
// right-canonical (Σ_{s,r} B[s,l,r]·conj(B[s,l',r]) = δ).
func (c *Chain) canonicalize() {
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

// Sampled is one distinct sampled configuration.
type Sampled struct {
	Indices []int32    // one physical index per site
	Trace   complex128 // exact trace value of this configuration
	Count   int        // how many of the k samples landed here
}
