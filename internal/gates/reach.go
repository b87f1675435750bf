package gates

import (
	"math"
	"math/cmplx"

	"repro/internal/qmat"
)

// Reaches reports whether some Clifford+T operator with T count at most
// budget lies within eps of u: whether Distance(u, M) < eps for an
// entry M of a table of that budget. It walks the Matsumoto–Amano
// T-parts R = (T|ε)(HT|SHT)* depth first from U†, right-multiplying by T
// (first step only), HT or SHT down to the budget, 3·2^budget − 2 nodes
// at most, and returns at the first node where the best of the 24
// Cliffords C, in closed form (nearest), brings |Tr(U†·R·C)|/2 above
// √(1−eps²) less reachSlack. It keeps no memory between calls.
//
// The slack makes the answer err toward true: a false is a certificate
// that every operator within the budget lies at least eps from u, with
// room for rounding in the walk and in trasyn's chains, which compute
// the same trace values. u need not be exactly unitary; the walk bounds
// what a non-unitary part can add.
func Reaches(u qmat.M2, eps float64, budget int) bool {
	if budget < 0 {
		return false
	}
	// U† = Σ a_n·B_n over B = (1, −iX, −iY, −iZ), with complex a.
	v := qmat.Dagger(u)
	a := [4]complex128{
		(v[0][0] + v[1][1]) / 2,
		1i * (v[0][1] + v[1][0]) / 2,
		(v[1][0] - v[0][1]) / 2,
		1i * (v[0][0] - v[1][1]) / 2,
	}
	// det U† = Σ a_n² = e^{2iφ}·|det U†|: turning the phase by e^{−iφ}
	// leaves a real for a unitary u, up to rounding.
	if r := cmplx.Sqrt(a[0]*a[0] + a[1]*a[1] + a[2]*a[2] + a[3]*a[3]); r != 0 {
		ph := cmplx.Conj(r) / complex(cmplx.Abs(r), 0)
		for i := range a {
			a[i] *= ph
		}
	}
	// With a = p + i·q, |Tr(U†·R·C)|/2 ≤ √(nearest(p·R)² + ‖q‖²): right
	// multiplication by a unit quaternion is a rotation of R⁴, so q·R·C
	// keeps q's norm.
	var p quat
	q2 := 0.0
	for i, z := range a {
		p[i] = real(z)
		q2 += imag(z) * imag(z)
	}
	thr := math.Sqrt(max(0, 1-eps*eps)) - reachSlack
	limit2 := thr*thr - q2
	if thr <= 0 || !(limit2 > 0) {
		return true // every operator, or a NaN ε: nothing to certify
	}
	w := walk{limit: math.Sqrt(limit2), budget: budget}
	return w.from(p, 0)
}

// reachSlack is how far below √(1−ε²) a node's |Tr|/2 may lie and still
// reach. It is on the trace value, not on ε, so it covers rounding at
// every ε: trasyn's chains compute |Tr|/2 within 1e-15 of the sampled
// matrices' direct product (T ≤ 5, two to four sites), and the walk's
// products round as little. So no computed error below ε contradicts an
// answer of false.
const reachSlack = 1e-12

// quat is the quaternion w + x·i + y·j + z·k. A unit quat stands for the
// SU(2) matrix w − i(x·X + y·Y + z·Z), and the Hamilton product of two
// is the matrix product: (−iX)(−iY) = −iZ, as i·j = k.
type quat [4]float64

func (a quat) mul(b quat) quat {
	return quat{
		a[0]*b[0] - a[1]*b[1] - a[2]*b[2] - a[3]*b[3],
		a[0]*b[1] + a[1]*b[0] + a[2]*b[3] - a[3]*b[2],
		a[0]*b[2] - a[1]*b[3] + a[2]*b[0] + a[3]*b[1],
		a[0]*b[3] + a[1]*b[2] - a[2]*b[1] + a[3]*b[0],
	}
}

// The walk's steps, with their global phases removed: T = e^{iπ/8}·Rz(π/4),
// S = e^{iπ/4}·Rz(π/2) and H = i·(−iX − iZ)/√2.
var (
	quatT   = quat{math.Cos(math.Pi / 8), 0, 0, math.Sin(math.Pi / 8)}
	quatHT  = quat{0, 1 / math.Sqrt2, 0, 1 / math.Sqrt2}.mul(quatT)
	quatSHT = quat{1 / math.Sqrt2, 0, 0, 1 / math.Sqrt2}.mul(quatHT)
)

// nearest returns max_C |⟨y, c⟩| over the 48 unit quaternions c of the 24
// Cliffords, which is max_C |Tr(Y·C)|/2 (the Cliffords are closed under
// inverse). They are the binary octahedral group: ±1, ±i, ±j, ±k, the
// sixteen (±1±i±j±k)/2 and the twenty-four (±e_m ± e_n)/√2. With
// a₁ ≥ a₂ ≥ a₃ ≥ a₄ the sorted |y_n|, the best of each kind is a₁,
// (a₁+a₂+a₃+a₄)/2 and (a₁+a₂)/√2.
func nearest(y *quat) float64 {
	a, b, c, d := math.Abs(y[0]), math.Abs(y[1]), math.Abs(y[2]), math.Abs(y[3])
	if a < b {
		a, b = b, a
	}
	if c < d {
		c, d = d, c
	}
	if a < c {
		a, b, c, d = c, d, a, b
	}
	// a is the largest; the second is the larger of b and c.
	return max(a, (a+b+c+d)/2, (a+max(b, c))/math.Sqrt2)
}

// walk is one Reaches call's depth-first search.
type walk struct {
	limit  float64
	budget int
}

// from reports whether y = U†·R, R a T-part of T count depth, or y
// extended by syllables within the budget, has a Clifford above limit.
func (w *walk) from(y quat, depth int) bool {
	if nearest(&y) > w.limit {
		return true
	}
	if depth == w.budget {
		return false
	}
	if depth == 0 && w.from(y.mul(quatT), 1) {
		return true
	}
	return w.from(y.mul(quatHT), depth+1) || w.from(y.mul(quatSHT), depth+1)
}
