package qmat

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
)

// M4 is a 4x4 complex matrix stored row-major, representing an operator on
// a qubit pair (a, b). The basis ordering puts the FIRST qubit of the pair
// in the high bit: index = bitA·2 + bitB, i.e. rows/columns run
// |00⟩, |01⟩, |10⟩, |11⟩ with |a b⟩. Kron(A, B) therefore applies A to the
// first qubit and B to the second.
type M4 [4][4]complex128

// I4 returns the 4x4 identity.
func I4() M4 {
	var m M4
	for i := 0; i < 4; i++ {
		m[i][i] = 1
	}
	return m
}

// Kron returns a⊗b: the first (high) qubit sees a, the second sees b.
// Kron(a,b)[2i+j][2k+l] = a[i][k]·b[j][l].
func Kron(a, b M2) M4 {
	var m M4
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				for l := 0; l < 2; l++ {
					m[2*i+j][2*k+l] = a[i][k] * b[j][l]
				}
			}
		}
	}
	return m
}

// CXFirst returns CX with the first (high) qubit as control.
// It swaps rows |10⟩ and |11⟩.
func CXFirst() M4 {
	return M4{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
	}
}

// CXSecond returns CX with the second (low) qubit as control.
// It swaps rows |01⟩ and |11⟩.
func CXSecond() M4 {
	return M4{
		{1, 0, 0, 0},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
		{0, 1, 0, 0},
	}
}

// CZ4 returns the (symmetric) controlled-Z on the pair.
func CZ4() M4 {
	m := I4()
	m[3][3] = -1
	return m
}

// SWAP4 returns the swap of the two qubits.
func SWAP4() M4 {
	return M4{
		{1, 0, 0, 0},
		{0, 0, 1, 0},
		{0, 1, 0, 0},
		{0, 0, 0, 1},
	}
}

// Mul4 returns a·b.
func Mul4(a, b M4) M4 {
	var m M4
	for i := 0; i < 4; i++ {
		for k := 0; k < 4; k++ {
			s := complex(0, 0)
			for j := 0; j < 4; j++ {
				s += a[i][j] * b[j][k]
			}
			m[i][k] = s
		}
	}
	return m
}

// MulAll4 multiplies left to right: MulAll4(a,b,c) = a·b·c.
func MulAll4(ms ...M4) M4 {
	p := I4()
	for _, m := range ms {
		p = Mul4(p, m)
	}
	return p
}

// Dagger4 returns the conjugate transpose.
func Dagger4(a M4) M4 {
	var m M4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			m[i][j] = cmplx.Conj(a[j][i])
		}
	}
	return m
}

// Transpose4 returns the (plain) transpose.
func Transpose4(a M4) M4 {
	var m M4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			m[i][j] = a[j][i]
		}
	}
	return m
}

// Scale4 returns s·a.
func Scale4(s complex128, a M4) M4 {
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			a[i][j] *= s
		}
	}
	return a
}

// Det4 returns det(a) by cofactor expansion along the first row.
func Det4(a M4) complex128 {
	det3 := func(m [3][3]complex128) complex128 {
		return m[0][0]*(m[1][1]*m[2][2]-m[1][2]*m[2][1]) -
			m[0][1]*(m[1][0]*m[2][2]-m[1][2]*m[2][0]) +
			m[0][2]*(m[1][0]*m[2][1]-m[1][1]*m[2][0])
	}
	var d complex128
	sign := complex(1, 0)
	for c := 0; c < 4; c++ {
		var minor [3][3]complex128
		for i := 1; i < 4; i++ {
			mc := 0
			for j := 0; j < 4; j++ {
				if j == c {
					continue
				}
				minor[i-1][mc] = a[i][j]
				mc++
			}
		}
		d += sign * a[0][c] * det3(minor)
		sign = -sign
	}
	return d
}

// HSTrace4 returns Tr(U†V).
func HSTrace4(u, v M4) complex128 {
	var s complex128
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			s += cmplx.Conj(u[i][j]) * v[i][j]
		}
	}
	return s
}

// TraceValue4 returns |Tr(U†V)|/4, the N = 4 trace value.
func TraceValue4(u, v M4) float64 { return cmplx.Abs(HSTrace4(u, v)) / 4 }

// Distance4 is the global-phase-invariant unitary distance
// sqrt(1 − |Tr(U†V)|²/16), the N = 4 analogue of Distance.
func Distance4(u, v M4) float64 {
	t := TraceValue4(u, v)
	d := 1 - t*t
	if d < 0 {
		return 0
	}
	return math.Sqrt(d)
}

// MaxAbsDiff4 returns the largest entrywise |u−v| after aligning the global
// phase of v to u (via the Hilbert–Schmidt overlap). For unitaries it upper-
// bounds the operator-norm error of using v in place of u up to phase.
func MaxAbsDiff4(u, v M4) float64 {
	tr := HSTrace4(v, u)
	ph := complex(1, 0)
	if cmplx.Abs(tr) > 0 {
		ph = tr / complex(cmplx.Abs(tr), 0)
	}
	worst := 0.0
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if d := cmplx.Abs(u[i][j] - ph*v[i][j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// IsUnitary4 reports whether a†a = I within tol (entrywise).
func IsUnitary4(a M4, tol float64) bool {
	g := Mul4(Dagger4(a), a)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := complex(0, 0)
			if i == j {
				want = 1
			}
			if cmplx.Abs(g[i][j]-want) > tol {
				return false
			}
		}
	}
	return true
}

// ApproxEqual4 reports whether a and b agree entrywise within tol.
func ApproxEqual4(a, b M4, tol float64) bool {
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if cmplx.Abs(a[i][j]-b[i][j]) > tol {
				return false
			}
		}
	}
	return true
}

// KronFactor attempts to factor u ≈ e^{iγ}·(a⊗b) into single-qubit factors,
// returning ok=false when u is entangling. The residual entrywise error of
// e^{iγ}(a⊗b) vs u is bounded by tol on success.
func KronFactor(u M4, tol float64) (a, b M2, phase complex128, ok bool) {
	// Pick the 2x2 block (i,k) of largest norm: block(i,k)[j][l] = a[i][k]·b[j][l].
	bi, bk, bn := 0, 0, -1.0
	for i := 0; i < 2; i++ {
		for k := 0; k < 2; k++ {
			n := 0.0
			for j := 0; j < 2; j++ {
				for l := 0; l < 2; l++ {
					c := u[2*i+j][2*k+l]
					n += real(c)*real(c) + imag(c)*imag(c)
				}
			}
			if n > bn {
				bi, bk, bn = i, k, n
			}
		}
	}
	if bn < 1e-24 {
		return a, b, 0, false
	}
	// b is the dominant block normalized to unit Frobenius norm scaled to a
	// unitary candidate (‖unitary 2x2‖_F = √2).
	scale := complex(math.Sqrt(2/bn), 0)
	for j := 0; j < 2; j++ {
		for l := 0; l < 2; l++ {
			b[j][l] = u[2*bi+j][2*bk+l] * scale
		}
	}
	// a entries from overlaps: a[i][k] = Tr(block(i,k)·b†)/2.
	bd := Dagger(b)
	for i := 0; i < 2; i++ {
		for k := 0; k < 2; k++ {
			var blk M2
			for j := 0; j < 2; j++ {
				for l := 0; l < 2; l++ {
					blk[j][l] = u[2*i+j][2*k+l]
				}
			}
			p := Mul(blk, bd)
			a[i][k] = Trace(p) / 2
		}
	}
	if !IsUnitary(a, 1e-6) || !IsUnitary(b, 1e-6) {
		return a, b, 0, false
	}
	// Pull the residual phase out of a so a, b are unitary and
	// phase·(a⊗b) ≈ u exactly (not only up to phase).
	da := cmplx.Sqrt(Det(a))
	if cmplx.Abs(da) < 1e-300 {
		return a, b, 0, false
	}
	a = Scale(1/da, a)
	phase = da
	k := Kron(a, b)
	// Align residual global phase precisely.
	tr := HSTrace4(k, u)
	if cmplx.Abs(tr) < 1e-12 {
		return a, b, 0, false
	}
	phase = tr / complex(cmplx.Abs(tr), 0)
	k = Scale4(phase, k)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if cmplx.Abs(k[i][j]-u[i][j]) > tol {
				return a, b, 0, false
			}
		}
	}
	return a, b, phase, true
}

// HaarRandom4 returns a Haar-distributed SU(4) element: a complex Ginibre
// matrix orthonormalized by Gram–Schmidt (QR with positive diagonal), with
// the determinant normalized away.
func HaarRandom4(rng *rand.Rand) M4 {
	var g [4][4]complex128
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			g[i][j] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	// Gram–Schmidt on columns.
	var q M4
	for c := 0; c < 4; c++ {
		var v [4]complex128
		for r := 0; r < 4; r++ {
			v[r] = g[r][c]
		}
		for p := 0; p < c; p++ {
			var dot complex128
			for r := 0; r < 4; r++ {
				dot += cmplx.Conj(q[r][p]) * v[r]
			}
			for r := 0; r < 4; r++ {
				v[r] -= dot * q[r][p]
			}
		}
		n := 0.0
		for r := 0; r < 4; r++ {
			n += real(v[r])*real(v[r]) + imag(v[r])*imag(v[r])
		}
		n = math.Sqrt(n)
		if n < 1e-12 {
			// Degenerate draw (measure zero); retry wholesale.
			return HaarRandom4(rng)
		}
		for r := 0; r < 4; r++ {
			q[r][c] = v[r] / complex(n, 0)
		}
	}
	// Normalize det to 1: divide by det^{1/4}.
	d := Det4(q)
	root := cmplx.Pow(d, 0.25)
	if cmplx.Abs(root) < 1e-300 {
		return HaarRandom4(rng)
	}
	return Scale4(1/root, q)
}

// String renders the matrix for debugging.
func (m M4) String() string {
	s := "["
	for i := 0; i < 4; i++ {
		if i > 0 {
			s += ",\n "
		}
		s += fmt.Sprintf("[%v, %v, %v, %v]", m[i][0], m[i][1], m[i][2], m[i][3])
	}
	return s + "]"
}
