package grid

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/ring"
)

// The reference scan is the enumeration Scan replaced: it covers the
// ε-sliver {|z| ≤ 1, Re(z·e^{iθ/2}) ≥ √(1−ε²)} with float64 tests widened
// by a relative 1e-9, in scaled coordinates for the 1-D solves. Below
// ε ≈ 1e-5 that fuzz is deeper than the sliver, so most of what it yields
// lies outside the disks. Scan must yield every candidate the reference
// yields that gridsynth could admit, in the reference's relative order.

type refSliver struct {
	c, w       float64
	cosP, sinP float64
}

func newRefSliver(theta, eps float64) *refSliver {
	c := math.Sqrt(math.Max(0, 1-eps*eps))
	return &refSliver{c: c, w: math.Sqrt(math.Max(0, 1-c*c)), cosP: math.Cos(theta / 2), sinP: math.Sin(theta / 2)}
}

// refLambdaExp is lambdaExp by logarithms alone, as it was before the
// threshold table.
func refLambdaExp(la, lb float64) int {
	j := 0
	switch {
	case la > 0 && lb > 0:
		j = int(math.Round(math.Log(math.Sqrt(lb/la)) / lnLambda))
	case la == 0 && lb > 0:
		j = int(math.Round(math.Log(lb) / lnLambda))
	case lb == 0 && la > 0:
		j = -int(math.Round(math.Log(la) / lnLambda))
	}
	return min(max(j, -maxScale), maxScale)
}

// TestLambdaExpMatchesLog: the table exponent is refLambdaExp's on
// log-uniform pairs reaching past the ±maxScale clamp, within 64 ulps of
// every threshold, of the logarithm's own step and of every band edge,
// and on zero, negative and non-finite lengths.
func TestLambdaExpMatchesLog(t *testing.T) {
	check := func(la, lb float64) {
		t.Helper()
		if got, want := lambdaExp(la, lb), refLambdaExp(la, lb); got != want {
			t.Fatalf("lambdaExp(%v, %v) = %d, want %d", la, lb, got, want)
		}
	}
	// |ln(lb/la)| reaches 140, past the clamp's (2·maxScale+1)·lnλ ≈ 92.6.
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 1_000_000; i++ {
		check(math.Exp(rng.Float64()*140-70), math.Exp(rng.Float64()*140-70))
	}
	around := func(la, r float64) {
		lb := r * la
		for i := 0; i < 64; i++ {
			lb = math.Nextafter(lb, 0)
		}
		for i := 0; i <= 128; i++ {
			check(la, lb)
			lb = math.Nextafter(lb, math.Inf(1))
		}
	}
	sqrt2 := new(big.Float).SetPrec(512).SetInt64(2)
	sqrt2.Sqrt(sqrt2)
	for i, c := range lambdaCut {
		// The threshold λ^(2J+1) = a + b√2, rounded from 512 bits: below 1,
		// a and b cancel by up to about 260 bits.
		p := ring.PowLambda(2*(i-maxScale) + 1)
		x := new(big.Float).SetPrec(512).SetInt(p.B)
		exact, _ := x.Mul(x, sqrt2).Add(x, new(big.Float).SetInt(p.A)).Float64()
		if mid := (c.lo + c.hi) / 2; math.Abs(mid-exact) > 1e-13*exact {
			t.Fatalf("band %d is centred at %v, threshold %v", i, mid, exact)
		}
		// Where the logarithm steps, bisected over the band's float bits.
		lo, hi := math.Float64bits(c.lo), math.Float64bits(c.hi)
		for lo+1 < hi {
			mid := lo + (hi-lo)/2
			if refLambdaExp(1, math.Float64frombits(mid)) == i-maxScale {
				lo = mid
			} else {
				hi = mid
			}
		}
		for _, r := range []float64{exact, math.Float64frombits(hi), c.lo, c.hi} {
			for _, la := range []float64{1, 0.75, 3e-3 * math.Pi, 7e4} {
				around(la, r)
			}
		}
	}
	edge := []float64{0, math.Copysign(0, -1), -1, 5e-324, 1e-300, 1, 1e300, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, x := range edge {
		for _, y := range edge {
			check(x, y)
		}
		for i := 0; i < 1000; i++ {
			y := math.Exp(rng.Float64()*140 - 70)
			check(x, y)
			check(y, x)
		}
	}
}

func refWiden(iv Interval, abs float64) Interval { return Interval{iv.Lo - abs, iv.Hi + abs} }

func refSolve1D(a, b Interval) []ring.ZSqrt2 {
	var out []ring.ZSqrt2
	refEach1D(a, b, func(x ring.ZSqrt2) bool {
		out = append(out, x)
		return true
	})
	return out
}

func refEach1D(a, b Interval, yield func(ring.ZSqrt2) bool) bool {
	if a.Len() < 0 || b.Len() < 0 {
		return true
	}
	j := refLambdaExp(a.Len(), b.Len())
	lj := math.Exp(lnLambda * float64(j))
	sa := Interval{a.Lo * lj, a.Hi * lj}
	var sb Interval
	ljInv := 1 / lj
	if j%2 == 0 {
		sb = Interval{b.Lo * ljInv, b.Hi * ljInv}
	} else {
		sb = Interval{-b.Hi * ljInv, -b.Lo * ljInv}
	}
	if j == 0 {
		return refEach1DDirect(sa, sb, yield)
	}
	linv := ring.ZSqrt2{A: -1, B: 1}
	if j < 0 {
		linv = ring.ZSqrt2{A: 1, B: 1}
	}
	scale := ring.ZSqrt2{A: 1}
	for i := 0; i < max(j, -j); i++ {
		scale = scale.Mul(linv)
	}
	return refEach1DDirect(sa, sb, func(sol ring.ZSqrt2) bool { return yield(sol.Mul(scale)) })
}

func refEach1DDirect(a, b Interval, yield func(ring.ZSqrt2) bool) bool {
	const fuzz = 1e-9
	a = refWiden(a, fuzz*(1+math.Abs(a.Lo)+math.Abs(a.Hi)))
	b = refWiden(b, fuzz*(1+math.Abs(b.Lo)+math.Abs(b.Hi)))
	nLo := int64(math.Ceil((a.Lo - b.Hi) / (2 * ring.Sqrt2)))
	nHi := int64(math.Floor((a.Hi - b.Lo) / (2 * ring.Sqrt2)))
	if nHi-nLo > 1<<22 {
		return false
	}
	for n := nLo; n <= nHi; n++ {
		f := float64(n) * ring.Sqrt2
		mLo := math.Ceil(math.Max(a.Lo-f, b.Lo+f))
		mHi := math.Floor(math.Min(a.Hi-f, b.Hi+f))
		for m := mLo; m <= mHi; m++ {
			if !yield(ring.ZSqrt2{A: int64(m), B: n}) {
				return false
			}
		}
	}
	return true
}

func (sl *refSliver) scan(k int, yield func(ring.ZOmega) bool) bool {
	s := math.Pow(2, float64(k)/2)
	c, w := sl.c, sl.w
	cosP, sinP := sl.cosP, sl.sinP
	pts := [3][2]float64{
		{s * (c*cosP + w*sinP), s * (-c*sinP + w*cosP)},
		{s * (c*cosP - w*sinP), s * (-c*sinP - w*cosP)},
		{s * cosP, s * -sinP},
	}
	xLo, xHi := pts[0][0], pts[0][0]
	for _, pt := range pts[1:] {
		xLo, xHi = math.Min(xLo, pt[0]), math.Max(xHi, pt[0])
	}
	axes := [4][2]float64{{s, 0}, {-s, 0}, {0, s}, {0, -s}}
	for _, pt := range axes {
		if pt[0]*cosP-pt[1]*sinP >= c*s {
			xLo, xHi = math.Min(xLo, pt[0]), math.Max(xHi, pt[0])
		}
	}
	xInt := Interval{xLo * ring.Sqrt2, xHi * ring.Sqrt2}
	xBullet := Interval{-s * ring.Sqrt2, s * ring.Sqrt2}
	return refEach1D(xInt, xBullet, func(xp ring.ZSqrt2) bool {
		x := xp.Float() / ring.Sqrt2
		xb := -xp.Bullet().Float() / ring.Sqrt2
		disc := s*s - x*x
		if disc < 0 {
			return true
		}
		r := math.Sqrt(disc)
		ylo, yhi := -r, r
		switch {
		case sinP > 1e-300:
			yhi = math.Min(yhi, (x*cosP-c*s)/sinP)
		case sinP < -1e-300:
			ylo = math.Max(ylo, (x*cosP-c*s)/sinP)
		default:
			if x*cosP < c*s {
				return true
			}
		}
		if yhi < ylo {
			return true
		}
		discB := s*s - xb*xb
		if discB < 0 {
			return true
		}
		rb := math.Sqrt(discB)
		ys := refSolve1D(Interval{ylo * ring.Sqrt2, yhi * ring.Sqrt2}, Interval{-rb * ring.Sqrt2, rb * ring.Sqrt2})
		for _, yp := range ys {
			if (xp.A-yp.A)&1 != 0 {
				continue
			}
			u := ring.ZOmega{A: xp.B, B: (yp.A + xp.A) / 2, C: yp.B, D: (yp.A - xp.A) / 2}
			z := u.Complex()
			const tol = 1e-9
			if real(z)*real(z)+imag(z)*imag(z) > s*s*(1+tol)+tol ||
				real(z)*cosP-imag(z)*sinP < c*s-tol*s-tol {
				continue
			}
			zb := u.Bullet().Complex()
			if real(zb)*real(zb)+imag(zb)*imag(zb) > s*s*(1+1e-9) {
				continue
			}
			if !yield(u) {
				return false
			}
		}
		return true
	})
}

// admitBound is gridsynth's admission bound for threshold eps.
func admitBound(eps float64) float64 { return eps*(1+1e-6) + 1e-7 + 1e-12 }

// doublyNonNegative reports whether ξ = 2^k − |u|² satisfies ξ ≥ 0 and
// ξ• ≥ 0: with |u|² = n + q√2, whether P = 2^k − n ≥ 0 and P² ≥ 2q², in
// int64 while that cannot overflow and in big arithmetic otherwise. With
// every coefficient of u below 2^14, |n| and |q| are below 2^30, and with
// k ≤ 30, P² and 2q² are below 2^62.
func doublyNonNegative(u ring.ZOmega, k int) bool {
	if k <= 30 && max(u.A, -u.A, u.B, -u.B, u.C, -u.C, u.D, -u.D) < 1<<14 {
		n := u.Norm2()
		p := int64(1)<<k - n.A
		return p >= 0 && p*p >= 2*n.B*n.B
	}
	pow := ring.BSqrt2{A: new(big.Int).Lsh(big.NewInt(1), uint(k)), B: new(big.Int)}
	xi := pow.Sub(ring.BOmegaFromZOmega(u).Norm2())
	return xi.Sign() >= 0 && xi.Bullet().Sign() >= 0
}

// admittedStream is what gridsynth admits from Scan at k: candidates with
// ξ doubly non-negative and a predicted distance within admit.
func admittedStream(sl *Sliver, k int, admit float64) []ring.ZOmega {
	var out []ring.ZOmega
	sl.Scan(k, func(c Candidate) bool {
		if doublyNonNegative(c.U, k) && sl.PreError(c.U, k) <= admit {
			out = append(out, c.U)
		}
		return true
	})
	return out
}

// TestScanAdmitsExactly: for k ≤ 10, Scan's admitted stream is exactly
// the brute-forced admissible set — every u with |u|² ≤ 2^k, |u•|² ≤ 2^k
// and a predicted distance within the bound — boundary points (ξ = 0 or
// ξ• = 0) included, each once.
func TestScanAdmitsExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	thetas := []float64{0, math.Pi / 4, math.Pi / 2, math.Pi, -math.Pi / 8, 1e-9}
	for i := 0; i < 3; i++ {
		thetas = append(thetas, rng.Float64()*4*math.Pi-2*math.Pi)
	}
	epss := []float64{0.3, 1e-2, 1e-6}
	maxK := 10
	if raceEnabled {
		maxK = 8
	}
	type tcase struct {
		sl    *Sliver
		admit float64
		want  map[ring.ZOmega]bool
	}
	var cases []*tcase
	for _, theta := range thetas {
		for _, eps := range epss {
			cases = append(cases, &tcase{sl: NewSliver(theta, eps, admitBound(eps)), admit: admitBound(eps)})
		}
	}
	boundary := 0
	for k := 0; k <= maxK; k++ {
		for _, tc := range cases {
			tc.want = map[ring.ZOmega]bool{}
		}
		pow := int64(1) << k
		// |u|² + |u•|² = 2(a²+b²+c²+d²), so both disks bound a²+b²+c²+d².
		isqrt := func(n int64) int64 { return int64(math.Sqrt(float64(n))) }
		for a := -isqrt(pow); a <= isqrt(pow); a++ {
			rb := isqrt(pow - a*a)
			for b := -rb; b <= rb; b++ {
				rc := isqrt(pow - a*a - b*b)
				for c := -rc; c <= rc; c++ {
					rd := isqrt(pow - a*a - b*b - c*c)
					for d := -rd; d <= rd; d++ {
						u := ring.ZOmega{A: a, B: b, C: c, D: d}
						n := u.Norm2()
						p, q := pow-n.A, n.B
						if p < 0 || p*p < 2*q*q {
							continue
						}
						if p*p == 2*q*q {
							boundary++
						}
						z := u.Complex()
						if real(z)*real(z)+imag(z)*imag(z) < 0.7*float64(pow) {
							continue // outside every case's region (admit ≤ 0.51)
						}
						for _, tc := range cases {
							if real(z)*tc.sl.cosP-imag(z)*tc.sl.sinP > 0 && tc.sl.PreError(u, k) <= tc.admit {
								tc.want[u] = true
							}
						}
					}
				}
			}
		}
		for _, tc := range cases {
			got := admittedStream(tc.sl, k, tc.admit)
			seen := map[ring.ZOmega]bool{}
			for _, u := range got {
				if seen[u] {
					t.Fatalf("k=%d admit=%g: %v yielded twice", k, tc.admit, u)
				}
				seen[u] = true
				if !tc.want[u] {
					t.Fatalf("k=%d admit=%g: %v admitted but not admissible", k, tc.admit, u)
				}
			}
			for u := range tc.want {
				if !seen[u] {
					t.Fatalf("k=%d admit=%g cos=%v sin=%v: admissible %v not yielded", k, tc.admit, tc.sl.cosP, tc.sl.sinP, u)
				}
			}
		}
	}
	if boundary == 0 {
		t.Fatal("no point on a disk boundary was enumerated")
	}
}

// referenceOrder checks that Scan's admitted stream at k contains every
// candidate the reference scan yields with ξ doubly non-negative and a
// predicted distance within the bound, in the reference's relative order.
// It returns the length of Scan's admitted stream.
func referenceOrder(t *testing.T, theta, eps float64, k int) int {
	t.Helper()
	admit := admitBound(eps)
	sl, ref := NewSliver(theta, eps, admit), newRefSliver(theta, eps)
	var want []ring.ZOmega
	ref.scan(k, func(u ring.ZOmega) bool {
		if sl.PreError(u, k) <= admit && doublyNonNegative(u, k) {
			want = append(want, u)
		}
		return true
	})
	got := admittedStream(sl, k, admit)
	j := 0
	for _, u := range got {
		if j < len(want) && u == want[j] {
			j++
		}
	}
	if j < len(want) {
		t.Fatalf("eps=%g θ=%v k=%d: reference candidate %v (%d of %d) missing or out of order",
			eps, theta, k, want[j], j, len(want))
	}
	return len(got)
}

// TestScanKeepsReferenceOrder: at every k up to the one gridsynth solves
// at, Scan's admitted stream keeps the reference's admissible candidates
// in the reference's order. gridsynth admits about two candidates per
// search, so the k ladder stops once four have been admitted. The
// reference is slow at 1e-7, where it yields ~10⁵ times more than it
// admits, so fewer angles run there.
//
// Those searches rarely put two admissible points in one x column, so
// they pin the order of the outer x solve only. The last case pins the
// inner y solve: at ε = 1e-6 and θ = ±2.5ε, k = 38 puts ~2·10⁴ admissible
// points in one x column, where the ε-sliver's section and the admission
// region's give different λ-exponents.
func TestScanKeepsReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, eps := range []float64{0.3, 1e-2, 1e-4, 1e-6, 1e-7} {
		angles := 6
		if eps < 1e-6 {
			angles = 2
		}
		if raceEnabled {
			angles = 1
		}
		for i := 0; i < angles; i++ {
			theta := rng.Float64()*4*math.Pi - 2*math.Pi
			for k, admitted := 0, 0; admitted < 4; k++ {
				admitted += referenceOrder(t, theta, eps, k)
			}
		}
	}
	for _, theta := range []float64{2.5e-6, -2.5e-6} {
		if n := referenceOrder(t, theta, 1e-6, 38); n < 1000 {
			t.Fatalf("θ=%v k=38: only %d admitted, so the case no longer fills a column", theta, n)
		}
	}
}
