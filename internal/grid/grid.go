// Package grid solves the one- and two-dimensional scaled grid problems of
// Ross–Selinger style Rz synthesis: enumerating points of Z[√2] (and, via a
// coset construction, Z[ω]) whose two field embeddings fall in prescribed
// intervals/regions.
//
// The 2-D problem enumerated here is the gridsynth candidate search: find
// u ∈ Z[ω] with u/√2^k in the admission region {|z| ≤ 1,
// Re(z·e^{iθ/2}) ≥ √(1−admit²)} and u•/√2^k in the closed unit disk.
// Candidates are produced by slicing the region's bounding box along x
// with a 1-D grid solve, then solving a second 1-D problem for y on the
// region's section and the disk's; λ-rescaling keeps every 1-D solve
// proportional to its output size.
package grid

import (
	"math"

	"repro/internal/ring"
)

// Interval is a closed real interval [Lo, Hi].
type Interval struct {
	Lo, Hi float64
}

// Len returns the interval length (negative if empty).
func (iv Interval) Len() float64 { return iv.Hi - iv.Lo }

const lnLambda = 0.881373587019543 // ln(1+√2)

// Float tolerances. Each covers 2^3–2^5 times the worst rounding of the
// computation it guards, so no lattice point is lost, and stays near or
// below the admission region's depth admit²/2 down to ε ≈ 1e-7, so the
// scan adds few points the exact tests downstream then reject.
const (
	// geomSlack widens the region's geometry, in original coordinates:
	// relative to s for the chord and the x-extent, to s² for the disks'
	// squared radii.
	geomSlack = 0x1p-47
	// solveSlack widens a 1-D scan's intervals, relative to the larger of
	// its scaled embeddings, which its sums mix.
	solveSlack = 0x1p-48
)

// maxScale bounds |j| in a λ^j rescaling.
const maxScale = 52

// lambdaScale[j+maxScale] holds, for |j| ≤ maxScale, the float factors
// λ^j (from λ^|j| correctly rounded) and λ^(−j) that a 1-D solve at
// rescaling exponent j applies to its two intervals, and λ^(−j) in
// Z[√2], which maps the solve's points back. The exact entries past about
// |j| = 50 wrap in int64; Z[√2] arithmetic stays exact modulo 2^64, so a
// point whose coefficients fit still maps back exactly.
var lambdaScale = func() (t [2*maxScale + 1]struct {
	up, down float64
	back     ring.ZSqrt2
}) {
	back := [2]ring.ZSqrt2{{A: 1}, {A: 1}}
	for j := 0; j <= maxScale; j++ {
		p := ring.PowLambda(j).Float()
		t[maxScale+j].up, t[maxScale+j].down = p, 1/p
		t[maxScale-j].up, t[maxScale-j].down = 1/p, p
		t[maxScale+j].back, t[maxScale-j].back = back[0], back[1]
		back[0] = back[0].Mul(ring.ZSqrt2{A: -1, B: 1}) // λ⁻¹
		back[1] = back[1].Mul(ring.ZSqrt2{A: 1, B: 1})  // λ
	}
	return t
}()

// lambdaBand is the relative half-width of the band around each rounding
// threshold in which lambdaExp takes the logarithm instead of the table.
const lambdaBand = 1e-9

// lambdaCut[i] is the band [lo, hi] around λ^(2(i−maxScale)+1), the ratio
// lb/la at which lambdaExp's exponent steps from i−maxScale to
// i−maxScale+1.
var lambdaCut = func() (t [2 * maxScale]struct{ lo, hi float64 }) {
	for i := range t {
		c := math.Exp(lnLambda * float64(2*(i-maxScale)+1))
		t[i].lo, t[i].hi = c*(1-lambdaBand), c*(1+lambdaBand)
	}
	return t
}()

// lambdaExp returns the exponent j for which rescaling α ↦ λ^j·α balances
// intervals of lengths la (for α) and lb (for α•): round(log_λ √(lb/la)),
// clamped to ±maxScale. A ratio outside every lambdaCut band takes its
// exponent from the table, which gives the logarithm's integer there: the
// band is over 10⁴ times wider than the logarithm's rounding error.
func lambdaExp(la, lb float64) int {
	j := 0
	switch {
	case la > 0 && lb > 0:
		r := lb / la
		if r > 0 && r <= math.MaxFloat64 {
			// i counts the bands wholly below r.
			i, n := 0, len(lambdaCut)
			for i < n {
				h := int(uint(i+n) >> 1)
				if lambdaCut[h].hi < r {
					i = h + 1
				} else {
					n = h
				}
			}
			if i == len(lambdaCut) || r < lambdaCut[i].lo {
				return i - maxScale
			}
		}
		j = int(math.Round(math.Log(math.Sqrt(r)) / lnLambda))
	case la == 0 && lb > 0:
		j = int(math.Round(math.Log(lb) / lnLambda))
	case lb == 0 && la > 0:
		j = -int(math.Round(math.Log(la) / lnLambda))
	}
	return min(max(j, -maxScale), maxScale)
}

// appendSolve1D appends to dst every α = m + n√2 ∈ Z[√2] with α ∈ a and
// α• ∈ b, scanning at rescaling exponent j (reusing dst's capacity).
func appendSolve1D(dst []ring.ZSqrt2, a, b Interval, j int) []ring.ZSqrt2 {
	each1D(a, b, j, func(sol ring.ZSqrt2) bool {
		dst = append(dst, sol)
		return true
	})
	return dst
}

// each1D yields the α ∈ Z[√2] with α ∈ a and α• ∈ b, scanning
// β = λ^j·α by its √2-coefficient, then its integer part. The order
// depends on j alone, so two scans with one j visit the points they share
// in the same order, whatever their intervals. Solutions are yielded
// lazily, so callers enumerating enormous ranges run in O(1) memory.
// Yielding false stops the scan; each1D reports whether the scan ran to
// completion.
func each1D(a, b Interval, j int, yield func(ring.ZSqrt2) bool) bool {
	if a.Len() < 0 || b.Len() < 0 {
		return true
	}
	// β = λ^j α: β ∈ λ^j·a, β• = (−1/λ)^j α•.
	sc := &lambdaScale[j+maxScale]
	sa := Interval{a.Lo * sc.up, a.Hi * sc.up}
	var sb Interval
	if j%2 == 0 {
		sb = Interval{b.Lo * sc.down, b.Hi * sc.down}
	} else {
		sb = Interval{-b.Hi * sc.down, -b.Lo * sc.down}
	}
	// The scan's sums mix both embeddings, so its rounding scales with
	// the larger of them.
	d := solveSlack * larger(larger(math.Abs(sa.Lo), math.Abs(sa.Hi)), larger(math.Abs(sb.Lo), math.Abs(sb.Hi)))
	sa = Interval{sa.Lo - d, sa.Hi + d}
	sb = Interval{sb.Lo - d, sb.Hi + d}
	if j == 0 {
		return each1DDirect(sa, sb, yield)
	}
	// Map back: α = λ^{−j}·β, exactly in Z[√2].
	return each1DDirect(sa, sb, func(sol ring.ZSqrt2) bool {
		return yield(sol.Mul(sc.back))
	})
}

// larger is max for operands that are not NaN: it skips the NaN and
// signed-zero handling of the builtin, which no finite magnitude needs.
func larger(x, y float64) float64 {
	if x > y {
		return x
	}
	return y
}

// each1DDirect scans n = (α − α•)/(2√2) over its feasible range.
func each1DDirect(a, b Interval, yield func(ring.ZSqrt2) bool) bool {
	nLo := int64(math.Ceil((a.Lo - b.Hi) / (2 * ring.Sqrt2)))
	nHi := int64(math.Floor((a.Hi - b.Lo) / (2 * ring.Sqrt2)))
	if nHi-nLo > 1<<22 {
		// Pathologically unbalanced intervals: refuse rather than spin.
		// Reported as an incomplete scan — nothing was enumerated.
		return false
	}
	for n := nLo; n <= nHi; n++ {
		// m ranges over [max(a.Lo−f, b.Lo+f), min(a.Hi−f, b.Hi+f)]; the
		// bounds are finite, so plain comparisons pick them.
		f := float64(n) * ring.Sqrt2
		lo, hi := a.Lo-f, a.Hi-f
		if v := b.Lo + f; v > lo {
			lo = v
		}
		if v := b.Hi + f; v < hi {
			hi = v
		}
		for m, mHi := math.Ceil(lo), math.Floor(hi); m <= mHi; m++ {
			if !yield(ring.ZSqrt2{A: int64(m), B: n}) {
				return false
			}
		}
	}
	return true
}

// Candidate is one Z[ω] grid point u (candidate numerator for gridsynth).
type Candidate struct {
	U ring.ZOmega
}

// Sliver is the candidate geometry for a fixed (θ, ε, admit), hoisted out
// of the per-k scan. Two chords describe it:
//   - the admission chord c = √(1−admit²) bounds the scan: every u with
//     u/√2^k in {|z| ≤ 1, Re(z·e^{iθ/2}) ≥ c} and u•/√2^k in the unit
//     disk is enumerated, disk boundaries included;
//   - the ε chord √(1−ε²) orders it: each 1-D solve takes its λ-exponent
//     from the ε-sliver's interval lengths, so the points it shares with
//     an enumeration of the ε-sliver come in that enumeration's order.
//
// It also owns the reusable 1-D solve buffer for the inner y scans, so
// repeated Scan calls allocate nothing in steady state; the outer x scan is
// lazy and never materialized, which keeps memory O(1) at any k.
// Not safe for concurrent use.
type Sliver struct {
	ce, we     float64 // ε chord √(1−ε²) and its half-width √(1−ce²)
	c, w       float64 // admission chord √(1−admit²) and its half-width admit
	cosP, sinP float64 // cos/sin of θ/2
	ybuf       []ring.ZSqrt2
}

// NewSliver precomputes the candidate geometry for Rz(θ) at error ε,
// scanning the region whose points realize a distance of at most admit
// (admit ≥ ε).
func NewSliver(theta, eps, admit float64) *Sliver {
	ce := math.Sqrt(math.Max(0, 1-eps*eps))
	phi := theta / 2
	return &Sliver{
		ce:   ce,
		we:   math.Sqrt(math.Max(0, 1-ce*ce)),
		c:    math.Sqrt(math.Max(0, 1-admit*admit)),
		w:    math.Min(admit, 1),
		cosP: math.Cos(phi),
		sinP: math.Sin(phi),
	}
}

// Scan enumerates the candidates at denominator exponent k in a
// deterministic order, yielding each as it is found; yielding false stops
// the scan. Scan reports whether the enumeration ran to completion. It
// holds no candidate storage, so callers that reject most candidates pay
// O(1) memory.
func (sl *Sliver) Scan(k int, yield func(Candidate) bool) bool {
	s := math.Pow(2, float64(k)/2) // √2^k
	s2 := math.Ldexp(1, k)         // s², exactly
	m := geomSlack * s

	// Work in primed coordinates x' = √2·x so both cosets of Z[ω] are plain
	// Z[√2] points with a parity coupling (see package ring).
	eLo, eHi := sl.xExtent(s, sl.ce, sl.we, 0)
	jx := lambdaExp(Interval{eLo * ring.Sqrt2, eHi * ring.Sqrt2}.Len(), Interval{-s * ring.Sqrt2, s * ring.Sqrt2}.Len())
	xLo, xHi := sl.xExtent(s, sl.c, sl.w, m)
	xInt := Interval{xLo * ring.Sqrt2, xHi * ring.Sqrt2}
	// |x•| ≤ s ⇒ x'• = −√2·x• ∈ [−√2 s, √2 s].
	xBullet := Interval{-s * ring.Sqrt2, s * ring.Sqrt2}

	return each1D(xInt, xBullet, jx, func(xp ring.ZSqrt2) bool {
		x := xp.Float() / ring.Sqrt2
		xb := -xp.Bullet().Float() / ring.Sqrt2 // x• (the bullet of x, not x')
		yInt, yBullet, ok := sl.section(x, xb, s, s2, sl.c, m, geomSlack)
		if !ok {
			return true
		}
		// The ε-sliver's section at x, where it has one, orders the y solve.
		var jy int
		if ey, eb, ok := sl.section(x, xb, s, s*s, sl.ce, 0, 0); ok {
			jy = lambdaExp(ey.Len(), eb.Len())
		} else {
			jy = lambdaExp(yInt.Len(), yBullet.Len())
		}
		sl.ybuf = appendSolve1D(sl.ybuf[:0], yInt, yBullet, jy)
		for _, yp := range sl.ybuf {
			// Parity coupling: int parts of x' and y' must match mod 2.
			if (xp.A-yp.A)&1 != 0 {
				continue
			}
			u := ring.ZOmega{
				A: xp.B, // a = √2-coefficient of x'
				B: (yp.A + xp.A) / 2,
				C: yp.B,
				D: (yp.A - xp.A) / 2,
			}
			// Final membership check in float (downstream admission is
			// exact).
			z := u.Complex()
			if !sl.inSliver(real(z), imag(z), s) {
				continue
			}
			zb := u.Bullet().Complex()
			if real(zb)*real(zb)+imag(zb)*imag(zb) > s*s*(1+1e-9) {
				continue
			}
			if !yield(Candidate{U: u}) {
				return false
			}
		}
		return true
	})
}

// xExtent returns the x-range, widened by m, of the scaled region
// {|z| ≤ s, Re(z·e^{iθ/2}) ≥ c·s} whose chord has half-width w·s: its
// chord endpoints, its arc apex and the axis extremes of the arc that
// satisfy the chord constraint.
func (sl *Sliver) xExtent(s, c, w, m float64) (lo, hi float64) {
	cosP, sinP := sl.cosP, sl.sinP
	xs := [3]float64{
		s * (c*cosP + w*sinP), // z+ = e^{−iφ}(c+iw)·s
		s * (c*cosP - w*sinP), // z−
		s * cosP,              // z0 = e^{−iφ}·s
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	axes := [4][2]float64{{s, 0}, {-s, 0}, {0, s}, {0, -s}}
	for _, pt := range axes {
		if pt[0]*cosP-pt[1]*sinP >= c*s-m {
			lo, hi = math.Min(lo, pt[0]), math.Max(hi, pt[0])
		}
	}
	return lo - m, hi + m
}

// section returns the y'-intervals at x of the region with chord c: its
// own section and the disk's at x•. The chord is widened by m along its
// normal and both disks' squared radius s2 by fuzz·s2; with m = fuzz = 0
// and s2 = s·s this is the ε-sliver's section as its enumeration computes
// it.
func (sl *Sliver) section(x, xb, s, s2, c, m, fuzz float64) (yInt, yBullet Interval, ok bool) {
	disc := s2 - x*x + fuzz*s2
	if disc < 0 {
		return Interval{}, Interval{}, false
	}
	r := math.Sqrt(disc)
	ylo, yhi := -r, r
	// Chord: x cosφ − y sinφ ≥ c·s. Every bound is finite, so plain
	// comparisons clip.
	switch {
	case sl.sinP > 1e-300:
		if v := (x*sl.cosP - c*s + m) / sl.sinP; v < yhi {
			yhi = v
		}
	case sl.sinP < -1e-300:
		if v := (x*sl.cosP - c*s + m) / sl.sinP; v > ylo {
			ylo = v
		}
	default:
		if x*sl.cosP < c*s-m {
			return Interval{}, Interval{}, false
		}
	}
	if yhi < ylo {
		return Interval{}, Interval{}, false
	}
	// y'• section: |y•| ≤ √(s² − x•²).
	discB := s2 - xb*xb + fuzz*s2
	if discB < 0 {
		return Interval{}, Interval{}, false
	}
	rb := math.Sqrt(discB)
	return Interval{ylo * ring.Sqrt2, yhi * ring.Sqrt2}, Interval{-rb * ring.Sqrt2, rb * ring.Sqrt2}, true
}

// PreError returns the unitary distance (Eq. (2)) that candidate u will
// realize at denominator exponent k, computed from u alone: the gridsynth
// column structure fixes |Tr(Rz(θ_g)†·V)|/2 = |Re(u·e^{iθ_g/2})|/√2^k, so
// the distance of the assembled unitary is known before the norm equation
// is solved or any gate is synthesized. Accuracy is a few float64 ulp
// (~1e-15 absolute), far inside the admission slack at every practical ε.
func (sl *Sliver) PreError(u ring.ZOmega, k int) float64 {
	s := math.Pow(2, float64(k)/2)
	z := u.Complex()
	t := (real(z)*sl.cosP - imag(z)*sl.sinP) / s
	d := 1 - t*t
	if d < 0 {
		return 0
	}
	return math.Sqrt(d)
}

// inSliver tests scaled-sliver membership at scale s = √2^k.
func (sl *Sliver) inSliver(x, y, s float64) bool {
	const tol = 1e-9
	if x*x+y*y > s*s*(1+tol)+tol {
		return false
	}
	return x*sl.cosP-y*sl.sinP >= sl.c*s-tol*s-tol
}
