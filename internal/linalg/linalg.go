// Package linalg provides dense complex linear algebra on complex128:
// matrix products, Gram–Schmidt QR/LQ and a one-sided Jacobi SVD. It is
// only a test reference now, and no binary imports it: internal/mps
// canonicalizes its chains in place, and its tests hold that sweep to
// LQ's results bit for bit (TestCanonicalizeMatchesReference).
package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Matrix is a dense complex matrix in row-major layout.
type Matrix struct {
	Rows, Cols int
	Data       []complex128
}

// New returns a zero matrix of the given shape.
func New(rows, cols int) Matrix {
	return Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// FromRows builds a matrix from row slices.
func FromRows(rows [][]complex128) Matrix {
	if len(rows) == 0 {
		return Matrix{}
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (i, j).
func (m Matrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m Matrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m Matrix) Clone() Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Mul returns m·n.
func (m Matrix) Mul(n Matrix) Matrix {
	if m.Cols != n.Rows {
		panic(fmt.Sprintf("linalg: dimension mismatch %dx%d · %dx%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	r := New(m.Rows, n.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.Data[i*m.Cols+k]
			if a == 0 {
				continue
			}
			rowN := n.Data[k*n.Cols : (k+1)*n.Cols]
			rowR := r.Data[i*n.Cols : (i+1)*n.Cols]
			for j, b := range rowN {
				rowR[j] += a * b
			}
		}
	}
	return r
}

// Dagger returns the conjugate transpose.
func (m Matrix) Dagger() Matrix {
	d := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			d.Data[j*m.Rows+i] = cmplx.Conj(m.Data[i*m.Cols+j])
		}
	}
	return d
}

// FrobNorm returns the Frobenius norm.
func (m Matrix) FrobNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// Identity returns the n×n identity.
func Identity(n int) Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// QR computes a thin QR decomposition m = Q·R with Q (rows×k) having
// orthonormal columns and R (k×cols) upper triangular, k = min(rows, cols).
// Modified Gram-Schmidt with one reorthogonalization pass: amply stable for
// the well-conditioned small matrices used here.
func QR(m Matrix) (q, r Matrix) {
	rows, cols := m.Rows, m.Cols
	k := rows
	if cols < k {
		k = cols
	}
	q = New(rows, k)
	r = New(k, cols)
	// Work on column vectors.
	col := func(mat Matrix, j int) []complex128 {
		v := make([]complex128, mat.Rows)
		for i := 0; i < mat.Rows; i++ {
			v[i] = mat.At(i, j)
		}
		return v
	}
	qcols := make([][]complex128, 0, k)
	for j := 0; j < cols; j++ {
		v := col(m, j)
		coeffs := make([]complex128, len(qcols))
		for pass := 0; pass < 2; pass++ {
			for i, qc := range qcols {
				var dot complex128
				for t := range v {
					dot += cmplx.Conj(qc[t]) * v[t]
				}
				coeffs[i] += dot
				for t := range v {
					v[t] -= dot * qc[t]
				}
			}
		}
		nrm := 0.0
		for _, x := range v {
			nrm += real(x)*real(x) + imag(x)*imag(x)
		}
		nrm = math.Sqrt(nrm)
		if len(qcols) < k {
			qi := len(qcols)
			if nrm > 1e-14 {
				for t := range v {
					v[t] /= complex(nrm, 0)
				}
				r.Set(qi, j, complex(nrm, 0))
			} else {
				// Deficient column: extend with a canonical basis vector
				// orthogonal to the span so Q stays orthonormal.
				v = orthoFill(qcols, rows)
				r.Set(qi, j, 0)
			}
			qcols = append(qcols, v)
			for i := 0; i < qi; i++ {
				r.Set(i, j, coeffs[i])
			}
		} else {
			for i := 0; i < k; i++ {
				r.Set(i, j, coeffs[i])
			}
		}
	}
	for j, qc := range qcols {
		for i := 0; i < rows; i++ {
			q.Set(i, j, qc[i])
		}
	}
	return q, r
}

// orthoFill returns a unit vector orthogonal to all vectors in qcols.
func orthoFill(qcols [][]complex128, n int) []complex128 {
	for b := 0; b < n; b++ {
		v := make([]complex128, n)
		v[b] = 1
		for pass := 0; pass < 2; pass++ {
			for _, qc := range qcols {
				var dot complex128
				for t := range v {
					dot += cmplx.Conj(qc[t]) * v[t]
				}
				for t := range v {
					v[t] -= dot * qc[t]
				}
			}
		}
		nrm := 0.0
		for _, x := range v {
			nrm += real(x)*real(x) + imag(x)*imag(x)
		}
		if nrm > 1e-8 {
			s := complex(1/math.Sqrt(nrm), 0)
			for t := range v {
				v[t] *= s
			}
			return v
		}
	}
	panic("linalg: cannot extend orthonormal basis")
}

// LQ computes m = L·Q with Q (k×cols) having orthonormal rows and L
// (rows×k) lower triangular, k = min(rows, cols). Implemented via QR of m†.
func LQ(m Matrix) (l, q Matrix) {
	qd, rd := QR(m.Dagger())
	return rd.Dagger(), qd.Dagger()
}

// SVD computes a thin singular value decomposition m = U·diag(s)·V† using
// one-sided Jacobi rotations on columns. U is rows×k, s has k = min(rows,
// cols) non-negative entries in decreasing order, V is cols×k.
func SVD(m Matrix) (u Matrix, s []float64, v Matrix) {
	rows, cols := m.Rows, m.Cols
	if rows < cols {
		// SVD of the dagger and swap factors.
		ud, sd, vd := SVD(m.Dagger())
		return vd, sd, ud
	}
	a := m.Clone()       // rows×cols, will become U·diag(s)
	vt := Identity(cols) // accumulates V (cols×cols)
	const maxSweeps = 60
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < cols-1; p++ {
			for q := p + 1; q < cols; q++ {
				// Gram entries for columns p, q.
				var app, aqq float64
				var apq complex128
				for i := 0; i < rows; i++ {
					cp := a.Data[i*cols+p]
					cq := a.Data[i*cols+q]
					app += real(cp)*real(cp) + imag(cp)*imag(cp)
					aqq += real(cq)*real(cq) + imag(cq)*imag(cq)
					apq += cmplx.Conj(cp) * cq
				}
				mag := cmplx.Abs(apq)
				if mag <= 1e-15*math.Sqrt(app*aqq)+1e-300 {
					continue
				}
				off += mag
				// Complex Jacobi rotation diagonalizing [[app, apq],[apq*, aqq]].
				phase := apq / complex(mag, 0)
				tau := (aqq - app) / (2 * mag)
				t := sign(tau) / (math.Abs(tau) + math.Sqrt(1+tau*tau))
				c := 1 / math.Sqrt(1+t*t)
				sn := complex(c*t, 0) * phase
				cc := complex(c, 0)
				for i := 0; i < rows; i++ {
					cp := a.Data[i*cols+p]
					cq := a.Data[i*cols+q]
					a.Data[i*cols+p] = cc*cp - cmplx.Conj(sn)*cq
					a.Data[i*cols+q] = sn*cp + cc*cq
				}
				for i := 0; i < cols; i++ {
					vp := vt.Data[i*cols+p]
					vq := vt.Data[i*cols+q]
					vt.Data[i*cols+p] = cc*vp - cmplx.Conj(sn)*vq
					vt.Data[i*cols+q] = sn*vp + cc*vq
				}
			}
		}
		if off < 1e-14 {
			break
		}
	}
	// Column norms are the singular values.
	type sv struct {
		val float64
		idx int
	}
	svs := make([]sv, cols)
	for j := 0; j < cols; j++ {
		n := 0.0
		for i := 0; i < rows; i++ {
			x := a.Data[i*cols+j]
			n += real(x)*real(x) + imag(x)*imag(x)
		}
		svs[j] = sv{math.Sqrt(n), j}
	}
	// Selection sort by decreasing value (cols is small).
	for i := 0; i < cols; i++ {
		best := i
		for j := i + 1; j < cols; j++ {
			if svs[j].val > svs[best].val {
				best = j
			}
		}
		svs[i], svs[best] = svs[best], svs[i]
	}
	k := cols
	u = New(rows, k)
	v = New(cols, k)
	s = make([]float64, k)
	for o, e := range svs {
		s[o] = e.val
		if e.val > 1e-300 {
			inv := complex(1/e.val, 0)
			for i := 0; i < rows; i++ {
				u.Set(i, o, a.Data[i*cols+e.idx]*inv)
			}
		}
		for i := 0; i < cols; i++ {
			v.Set(i, o, vt.Data[i*cols+e.idx])
		}
	}
	return u, s, v
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}
