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
	"math"
	"math/cmplx"

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
	c := newChain(target, siteMats)
	c.canonicalize()
	return c
}

// newChain fills the trace-value MPS's sites, before canonicalization.
func newChain(target qmat.M2, siteMats [][]qmat.M2) *Chain {
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
	return c
}

// canonicalize sweeps right to left, leaving every site but the first
// right-canonical (Σ_{s,r} B[s,l,r]·conj(B[s,l',r]) = δ). Each site is
// factored in its own data and R† is absorbed into its left neighbour's,
// so the sweep allocates nothing.
func (c *Chain) canonicalize() {
	for i := len(c.sites) - 1; i >= 1; i-- {
		r, k := c.sites[i].orthonormalize()
		c.sites[i-1].absorb(&r, k)
	}
	// Total norm² from the (non-canonical) first site.
	n := 0.0
	for _, v := range c.sites[0].data {
		n += real(v)*real(v) + imag(v)*imag(v)
	}
	c.norm2 = n
}

// The sweep factors a site's dl × m·dr matricization A[l, s·dr+r] =
// B[s,l,r] as A = R†·Q, Q with orthonormal rows, by the modified
// Gram–Schmidt QR of A† with one reorthogonalization pass. Column l of A†
// is conj(B[·,l,·]), a vector over t = s·dr + r that the site stores at
// stride dl·dr; orthonormalize conjugates the data in place and runs the
// QR on those strided vectors. Every dot product and norm is summed in t
// order, and every float operation is the one linalg.QR performs on a
// copied column, in the same order, so the chains are bit-identical to
// those of the linalg sweep in reference_test.go
// (TestCanonicalizeMatchesReference).

// dot returns Σ_t conj(v_i[t])·v_j[t].
func (st *site) dot(i, j int) complex128 {
	var dot complex128
	d, dr := st.data, st.dr
	for o := 0; o < len(d); o += st.dl * dr {
		x, y := d[o+i*dr:o+i*dr+dr], d[o+j*dr:o+j*dr+dr]
		for r, v := range y {
			dot += cmplx.Conj(x[r]) * v
		}
	}
	return dot
}

// subtract sets v_j ← v_j − a·v_i.
func (st *site) subtract(j int, a complex128, i int) {
	d, dr := st.data, st.dr
	for o := 0; o < len(d); o += st.dl * dr {
		x, y := d[o+i*dr:o+i*dr+dr], d[o+j*dr:o+j*dr+dr]
		for r := range y {
			y[r] -= a * x[r]
		}
	}
}

// project removes from v_j its components along the orthonormal v_0 ..
// v_{n−1}, in two passes, and adds what it removed along v_i to coeffs[i]
// when coeffs is not nil.
func (st *site) project(j, n int, coeffs *[4]complex128) {
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			dot := st.dot(i, j)
			if coeffs != nil {
				coeffs[i] += dot
			}
			st.subtract(j, dot, i)
		}
	}
}

// sumSquares returns Σ_t |v_j[t]|².
func (st *site) sumSquares(j int) float64 {
	n := 0.0
	d, dr := st.data, st.dr
	for o := j * dr; o < len(d); o += st.dl * dr {
		for _, x := range d[o : o+dr] {
			n += real(x)*real(x) + imag(x)*imag(x)
		}
	}
	return n
}

// orthonormalize replaces the site with Q, its right-canonical factor,
// and returns R (k × dl, upper triangular), k = min(m·dr, dl); a site
// shorter than its left bond leaves with dl = k.
func (st *site) orthonormalize() (rm [4][4]complex128, k int) {
	d, dl, dr := st.data, st.dl, st.dr
	k = min(st.m*dr, dl)
	for t, x := range d {
		d[t] = cmplx.Conj(x)
	}
	for j := 0; j < dl; j++ {
		var coeffs [4]complex128
		n := min(j, k) // the orthonormal vectors so far
		st.project(j, n, &coeffs)
		for i := 0; i < n; i++ {
			rm[i][j] = coeffs[i]
		}
		if j >= k {
			continue // v_j lies in their span; it is dropped below
		}
		if nrm := math.Sqrt(st.sumSquares(j)); nrm > 1e-14 {
			for o := j * dr; o < len(d); o += dl * dr {
				for r := o; r < o+dr; r++ {
					d[r] /= complex(nrm, 0)
				}
			}
			rm[j][j] = complex(nrm, 0)
		} else {
			st.fill(j)
		}
	}
	// Q's rows are the conjugated vectors 0..k−1.
	for s := 0; s < st.m; s++ {
		for l := 0; l < k; l++ {
			for r := 0; r < dr; r++ {
				d[(s*k+l)*dr+r] = cmplx.Conj(d[(s*dl+l)*dr+r])
			}
		}
	}
	st.data, st.dl = d[:st.m*k*dr], k
	return rm, k
}

// fill replaces a deficient v_j with a unit vector orthogonal to v_0 ..
// v_{j−1}: the first canonical basis vector that keeps a squared norm
// above 1e-8 once projected off them, scaled by its inverse norm.
func (st *site) fill(j int) {
	d, dl, dr := st.data, st.dl, st.dr
	for b := 0; b < st.m*dr; b++ {
		for o := j * dr; o < len(d); o += dl * dr {
			clear(d[o : o+dr])
		}
		d[(b/dr*dl+j)*dr+b%dr] = 1
		st.project(j, j, nil)
		if nrm := st.sumSquares(j); nrm > 1e-8 {
			sc := complex(1/math.Sqrt(nrm), 0)
			for o := j * dr; o < len(d); o += dl * dr {
				for r := o; r < o+dr; r++ {
					d[r] *= sc
				}
			}
			return
		}
	}
	panic("mps: cannot extend orthonormal basis")
}

// absorb multiplies the site's right bond by L = R† (dr × k), which leaves
// it with right bond k, row by row in place: each new row is written over
// the start of its old one after the old one has been read.
func (st *site) absorb(rm *[4][4]complex128, k int) {
	d, dr := st.data, st.dr
	var lm [4][4]complex128 // L = R†
	for r := 0; r < dr; r++ {
		for rn := 0; rn < k; rn++ {
			lm[r][rn] = cmplx.Conj(rm[rn][r])
		}
	}
	var row [4]complex128
	for n := 0; n < st.m*st.dl; n++ {
		copy(row[:dr], d[n*dr:(n+1)*dr])
		for rn := 0; rn < k; rn++ {
			var acc complex128
			for r := 0; r < dr; r++ {
				acc += row[r] * lm[r][rn]
			}
			d[n*k+rn] = acc
		}
	}
	st.data, st.dr = d[:st.m*st.dl*k], k
}

// Sampled is one distinct sampled configuration.
type Sampled struct {
	Indices []int32    // one physical index per site
	Trace   complex128 // exact trace value of this configuration
	Count   int        // how many of the k samples landed here
}
