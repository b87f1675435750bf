package ring

import (
	"math/big"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/qmat"
)

func randZOmega(r *rand.Rand, bound int64) ZOmega {
	f := func() int64 { return r.Int63n(2*bound+1) - bound }
	return ZOmega{f(), f(), f(), f()}
}

func TestZOmegaEmbeddingHomomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		z, w := randZOmega(r, 50), randZOmega(r, 50)
		sum := z.Add(w).Complex()
		if cmplx.Abs(sum-(z.Complex()+w.Complex())) > 1e-9 {
			return false
		}
		prod := z.Mul(w).Complex()
		if cmplx.Abs(prod-z.Complex()*w.Complex()) > 1e-6 {
			return false
		}
		if cmplx.Abs(z.Conj().Complex()-cmplx.Conj(z.Complex())) > 1e-9 {
			return false
		}
		if cmplx.Abs(z.MulOmega().Complex()-z.Complex()*cmplx.Exp(complex(0, 0.7853981633974483))) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestZOmegaNorm2(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		z := randZOmega(rng, 30)
		n := z.Norm2()
		want := cmplx.Abs(z.Complex())
		got := n.Float()
		if got < 0 || abs(got-want*want) > 1e-6*(1+want*want) {
			t.Fatalf("Norm2(%v) = %v (%v), want |z|² = %v", z, n, got, want*want)
		}
	}
}

func TestSqrt2Divisibility(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		z := randZOmega(rng, 30)
		m := z.MulSqrt2()
		if !m.DivisibleBySqrt2() {
			t.Fatalf("z·√2 should be divisible by √2: %v", m)
		}
		back := m.DivSqrt2()
		if back != z {
			t.Fatalf("(z·√2)/√2 = %v, want %v", back, z)
		}
		if cmplx.Abs(m.Complex()-z.Complex()*complex(Sqrt2, 0)) > 1e-9 {
			t.Fatal("MulSqrt2 embedding mismatch")
		}
	}
}

func TestBulletIsRingAutomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		z, w := randZOmega(rng, 40), randZOmega(rng, 40)
		if z.Mul(w).Bullet() != z.Bullet().Mul(w.Bullet()) {
			t.Fatal("bullet not multiplicative")
		}
		if z.Add(w).Bullet() != z.Bullet().Add(w.Bullet()) {
			t.Fatal("bullet not additive")
		}
		if z.Bullet().Bullet() != z {
			t.Fatal("bullet not involutive")
		}
	}
	// √2• = −√2, i• = i.
	s2 := ZSqrt2{0, 1}.ToZOmega()
	if s2.Bullet() != s2.Neg() {
		t.Error("√2• ≠ −√2")
	}
	i := OmegaUnit(2)
	if i.Bullet() != i {
		t.Error("i• ≠ i")
	}
}

func TestZSqrt2Arithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		x := ZSqrt2{rng.Int63n(200) - 100, rng.Int63n(200) - 100}
		y := ZSqrt2{rng.Int63n(200) - 100, rng.Int63n(200) - 100}
		if abs(x.Mul(y).Float()-x.Float()*y.Float()) > 1e-6 {
			t.Fatal("ZSqrt2 Mul embedding mismatch")
		}
		if x.NormZ() != x.Mul(x.Bullet()).A || x.Mul(x.Bullet()).B != 0 {
			t.Fatal("NormZ ≠ x·x•")
		}
	}
	if Lambda.Mul(LambdaInv) != (ZSqrt2{1, 0}) {
		t.Error("λ·λ⁻¹ ≠ 1")
	}
	if Lambda.Mul(Lambda.Bullet()) != (ZSqrt2{-1, 0}) {
		t.Error("λ·λ• ≠ −1")
	}
}

func TestUMatGatesMatchNumeric(t *testing.T) {
	cases := []struct {
		name string
		u    UMat
		m    qmat.M2
	}{
		{"I", UIdentity(), qmat.I2()},
		{"T", UGateT(), qmat.T()},
		{"Tdg", UGateTdg(), qmat.Tdg()},
		{"S", UGateS(), qmat.S()},
		{"Sdg", UGateSdg(), qmat.Sdg()},
		{"X", UGateX(), qmat.X},
		{"Y", UGateY(), qmat.Y},
		{"Z", UGateZ(), qmat.Z},
		{"H", UGateH(), qmat.H()},
	}
	for _, c := range cases {
		if !qmat.ApproxEqual(c.u.Complex(), c.m, 1e-12) {
			t.Errorf("%s: exact %v ≠ numeric %v", c.name, c.u.Complex(), c.m)
		}
	}
}

func TestUMatMulMatchesNumeric(t *testing.T) {
	gatesU := []UMat{UGateT(), UGateS(), UGateH(), UGateX(), UGateY(), UGateZ()}
	gatesM := []qmat.M2{qmat.T(), qmat.S(), qmat.H(), qmat.X, qmat.Y, qmat.Z}
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		u := UIdentity()
		m := qmat.I2()
		for i := 0; i < 12; i++ {
			g := rng.Intn(len(gatesU))
			u = u.Mul(gatesU[g])
			m = qmat.Mul(m, gatesM[g])
		}
		if !qmat.ApproxEqual(u.Complex(), m, 1e-9) {
			t.Fatalf("exact product diverged from numeric at trial %d", trial)
		}
		if u.K > 0 && u.E[0][0].DivisibleBySqrt2() && u.E[0][1].DivisibleBySqrt2() &&
			u.E[1][0].DivisibleBySqrt2() && u.E[1][1].DivisibleBySqrt2() {
			t.Fatal("UMat not reduced after Mul")
		}
	}
}

func TestCanonicalKeyPhaseInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gatesU := []UMat{UGateT(), UGateS(), UGateH(), UGateX()}
	for trial := 0; trial < 200; trial++ {
		u := UIdentity()
		for i := 0; i < 10; i++ {
			u = u.Mul(gatesU[rng.Intn(len(gatesU))])
		}
		key := u.CanonicalKey()
		for j := 0; j < 8; j++ {
			if u.MulPhase(j).CanonicalKey() != key {
				t.Fatalf("canonical key not phase invariant (j=%d)", j)
			}
		}
		// A different matrix should (generically) have a different key.
		v := u.Mul(UGateT())
		if v.CanonicalKey() == key {
			t.Fatal("distinct matrices share canonical key")
		}
	}
}

func TestBSqrt2MatchesSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 300; i++ {
		x := ZSqrt2{rng.Int63n(1000) - 500, rng.Int63n(1000) - 500}
		y := ZSqrt2{rng.Int63n(1000) - 500, rng.Int63n(1000) - 500}
		bx, by := BSqrt2FromZSqrt2(x), BSqrt2FromZSqrt2(y)
		if got := bx.Mul(by); got.A.Int64() != x.Mul(y).A || got.B.Int64() != x.Mul(y).B {
			t.Fatal("BSqrt2 Mul mismatch with int64 path")
		}
		if bx.NormZ().Int64() != x.NormZ() {
			t.Fatal("BSqrt2 NormZ mismatch")
		}
		if bx.Sign() != signFloat(x.Float()) {
			t.Fatalf("BSqrt2 Sign mismatch for %v: %d vs %d", x, bx.Sign(), signFloat(x.Float()))
		}
	}
}

func TestBSqrt2DivExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		x := NewBSqrt2(rng.Int63n(100)-50, rng.Int63n(100)-50)
		y := NewBSqrt2(rng.Int63n(20)-10, rng.Int63n(20)-10)
		if y.IsZero() {
			continue
		}
		p := x.Mul(y)
		q, ok := p.DivExact(y)
		if !ok || !q.Equal(x) {
			t.Fatalf("DivExact((x·y), y) failed: x=%v y=%v got %v ok=%v", x, y, q, ok)
		}
	}
	// Non-divisible case.
	if _, ok := NewBSqrt2(1, 0).DivExact(NewBSqrt2(0, 1)); ok {
		t.Error("1/√2 should not divide exactly in Z[√2]")
	}
}

func TestPowLambda(t *testing.T) {
	for j := -6; j <= 6; j++ {
		l := PowLambda(j)
		want := 1.0
		lf := 1 + Sqrt2
		for i := 0; i < j; i++ {
			want *= lf
		}
		for i := 0; i < -j; i++ {
			want /= lf
		}
		if abs(l.Float()-want) > 1e-9*want {
			t.Errorf("λ^%d = %v, want %v", j, l.Float(), want)
		}
	}
}

func TestBOmegaMatchesSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 300; i++ {
		z, w := randZOmega(rng, 100), randZOmega(rng, 100)
		bz, bw := BOmegaFromZOmega(z), BOmegaFromZOmega(w)
		prod, ok := bz.Mul(bw).ToZOmega()
		if !ok || prod != z.Mul(w) {
			t.Fatal("BOmega Mul mismatch with int64 path")
		}
		n2 := bz.Norm2()
		if n2.A.Int64() != z.Norm2().A || n2.B.Int64() != z.Norm2().B {
			t.Fatal("BOmega Norm2 mismatch")
		}
		if bz.DivisibleBySqrt2() != z.DivisibleBySqrt2() {
			t.Fatal("divisibility mismatch")
		}
		if z.DivisibleBySqrt2() {
			d, _ := bz.DivSqrt2().ToZOmega()
			if d != z.DivSqrt2() {
				t.Fatal("DivSqrt2 mismatch")
			}
		}
	}
}

// TestEuclideanDivAndGCD: z = q·w + r with 16·N(r) ≤ 9·N(w), the bound
// EuclideanDiv's coefficient rounding guarantees, on balanced random
// pairs and on pairs skewed by λ^m; and gcd(g·a, g·b) is divisible by g.
func TestEuclideanDivAndGCD(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lambda := Lambda.ToZOmega()
	skewed := func(bound int64) ZOmega {
		z := randZOmega(rng, bound)
		for m := rng.Intn(8); m > 0; m-- {
			z = z.Mul(lambda)
		}
		return z
	}
	nine, sixteen := big.NewInt(9), big.NewInt(16)
	for i := 0; i < 400; i++ {
		z, w := randZOmega(rng, 500), randZOmega(rng, 50)
		if i%2 == 1 {
			z, w = skewed(1<<20), skewed(1<<10)
		}
		if w.IsZero() {
			continue
		}
		bz, bw := BOmegaFromZOmega(z), BOmegaFromZOmega(w)
		q, r := EuclideanDiv(bz, bw)
		if !q.Mul(bw).Add(r).Equal(bz) {
			t.Fatal("z ≠ q·w + r")
		}
		nr, nw := r.NormZ(), bw.NormZ()
		if nr.Mul(nr, sixteen).Cmp(nw.Mul(nw, nine)) > 0 {
			t.Fatalf("N(r) > (9/16)·N(w): z=%v w=%v r=%v", z, w, r)
		}
	}
	for i := 0; i < 100; i++ {
		g := BOmegaFromZOmega(randZOmega(rng, 5))
		a := BOmegaFromZOmega(randZOmega(rng, 20))
		b := BOmegaFromZOmega(randZOmega(rng, 20))
		if g.IsZero() || a.IsZero() || b.IsZero() {
			continue
		}
		d := GCD(g.Mul(a), g.Mul(b))
		if d.IsZero() {
			continue
		}
		if _, r := EuclideanDiv(d, g); !r.IsZero() {
			t.Fatalf("gcd(g·a, g·b) = %v not divisible by g = %v", d, g)
		}
	}
}

// TestInPlaceMatchesValue: the in-place forms gridsynth's candidate loop
// calls give the value forms' results, into a receiver reused across
// trials as the loop reuses its temporaries, and with the receiver
// aliased to an operand, as in pow2k.MulTo(pow2k, two, &scr).
func TestInPlaceMatchesValue(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	randS := func() BSqrt2 {
		x := NewBSqrt2(rng.Int63()>>uint(rng.Intn(63)), rng.Int63()>>uint(rng.Intn(63)))
		if rng.Intn(2) == 0 {
			x.A.Neg(x.A)
		}
		if rng.Intn(2) == 0 {
			x.B.Neg(x.B)
		}
		return x.Mul(x).Add(x) // coefficients past int64
	}
	check := func(name string, got, want BSqrt2) {
		t.Helper()
		if !got.Equal(want) {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}
	var scr Scratch
	var x BSqrt2
	var u BOmega
	for i := 0; i < 500; i++ {
		y, z := randS(), randS()
		x.SubTo(y, z)
		check("SubTo", x, y.Sub(z))
		x.BulletTo(y)
		check("BulletTo", x, y.Bullet())
		x.MulTo(y, z, &scr)
		check("MulTo", x, y.Mul(z))
		w := randZOmega(rng, 1<<40)
		u.SetZOmega(w)
		if !u.Equal(BOmegaFromZOmega(w)) {
			t.Fatalf("SetZOmega(%v) = %v", w, u)
		}
		u.Norm2To(&x, &scr)
		check("Norm2To", x, BOmegaFromZOmega(w).Norm2())

		a := y.Clone()
		a.SubTo(a, z)
		check("SubTo(a, z)", a, y.Sub(z))
		a = z.Clone()
		a.SubTo(y, a)
		check("SubTo(y, a)", a, y.Sub(z))
		a = y.Clone()
		a.BulletTo(a)
		check("BulletTo(a)", a, y.Bullet())
		a = y.Clone()
		a.MulTo(a, z, &scr)
		check("MulTo(a, z)", a, y.Mul(z))
		a = z.Clone()
		a.MulTo(y, a, &scr)
		check("MulTo(y, a)", a, y.Mul(z))
		a = y.Clone()
		a.MulTo(a, a, &scr)
		check("MulTo(a, a)", a, y.Mul(y))
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func signFloat(x float64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

// randomProduct is the exact product of n random Clifford+T generators,
// formed with the generic Mul.
func randomProduct(rng *rand.Rand, n int) UMat {
	gens := []UMat{UGateT(), UGateTdg(), UGateS(), UGateSdg(), UGateH(), UGateX(), UGateY(), UGateZ()}
	u := UIdentity()
	for i := 0; i < n; i++ {
		u = u.Mul(gens[rng.Intn(len(gens))])
	}
	return u
}

func TestMulOmegaPowMatchesRepeatedMulOmega(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		z := randZOmega(rng, 1000)
		want := z
		for k := 0; k < 24; k++ {
			if got := z.MulOmegaPow(k); got != want {
				t.Fatalf("ω^%d·%v = %v, want %v", k, z, got, want)
			}
			if got := z.MulOmegaPow(k - 24); got != want {
				t.Fatalf("ω^%d·%v = %v, want %v", k-24, z, got, want)
			}
			want = want.MulOmega()
		}
	}
}

// TestColumnOpsMatchMul: each in-place column operation equals the
// generic Mul by the gate matrix it stands for, on random reduced products.
func TestColumnOpsMatchMul(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		u := randomProduct(rng, rng.Intn(60))
		for k := 0; k < 8; k++ {
			for j := 0; j < 2; j++ {
				d := UIdentity()
				d.E[j][j] = OmegaUnit(k)
				got := u
				got.PhaseCol(j, k)
				if want := u.Mul(d); got != want {
					t.Fatalf("PhaseCol(%d, %d) on %v: %v, want %v", j, k, u, got, want)
				}
			}
		}
		got := u
		got.SwapCols()
		if want := u.Mul(UGateX()); got != want {
			t.Fatalf("SwapCols on %v: %v, want %v", u, got, want)
		}
		got = u
		got.HadamardCols()
		if want := u.Mul(UGateH()); got != want {
			t.Fatalf("HadamardCols on %v: %v, want %v", u, got, want)
		}
	}
}

// TestCanonicalKeyMatchesPhaseRotations: the key is the least coefficient
// serialization over the eight matrices ω^j·m.
func TestCanonicalKeyMatchesPhaseRotations(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 300; trial++ {
		u := randomProduct(rng, rng.Intn(60))
		best := u.coeffs()
		for j := 1; j < 8; j++ {
			if c := u.MulPhase(j).coeffs(); lessCoeffs(c, best) {
				best = c
			}
		}
		if got, want := u.CanonicalKey(), (Key{K: int8(u.K), C: best}); got != want {
			t.Fatalf("CanonicalKey(%v) = %v, want %v", u, got, want)
		}
	}
}
