package dioph

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/ring"
)

// bigOfWide returns x as a big.Int.
func bigOfWide(x wide) *big.Int {
	v := new(big.Int).SetInt64(x.hi)
	v.Lsh(v, 64)
	return v.Add(v, new(big.Int).SetUint64(x.lo))
}

// TestWideMatchesBig checks wide's products, sums and both divisions
// against math/big, on operands up to the sizes the word path forms
// (sums of four products of values below 2^62) and divisors of one and
// two words.
func TestWideMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	word := func() int64 {
		v := rng.Int63n(wordLimit) >> uint(rng.Intn(62))
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	}
	sum := func() wide {
		s := wide{}
		for i := rng.Intn(5); i > 0; i-- {
			s = s.add(mul(word(), word()))
		}
		return s
	}
	for i := 0; i < 200000; i++ {
		a, b := word(), word()
		if got, want := bigOfWide(mul(a, b)), new(big.Int).Mul(big.NewInt(a), big.NewInt(b)); got.Cmp(want) != 0 {
			t.Fatalf("mul(%d, %d) = %v, want %v", a, b, got, want)
		}
		x, n := sum(), sum()
		if rng.Intn(4) == 0 {
			n = wideOf(word())
		}
		bx, bn := bigOfWide(x), bigOfWide(n)
		if got := bigOfWide(x.sub(n)); got.Cmp(new(big.Int).Sub(bx, bn)) != 0 {
			t.Fatalf("%v − %v = %v", bx, bn, got)
		}
		if got := x.cmp(n); got != bx.Cmp(bn) {
			t.Fatalf("cmp(%v, %v) = %d", bx, bn, got)
		}
		if n.isZero() {
			continue
		}
		q, r, ok := quoRem(x, n)
		wq, wr := new(big.Int).QuoRem(bx, bn, new(big.Int))
		fits := wq.CmpAbs(big.NewInt(wordLimit)) < 0
		if ok != fits || ok && (big.NewInt(q).Cmp(wq) != 0 || bigOfWide(r).Cmp(wr) != 0) {
			t.Fatalf("quoRem(%v, %v) = %d, %v, %v; want %v, %v", bx, bn, q, bigOfWide(r), ok, wq, wr)
		}
		rq, ok := roundQuo(x, n)
		want, t1, t2 := new(big.Int), new(big.Int), new(big.Int)
		ring.RoundQuoTo(want, bx, bn, t1, t2)
		if fits && want.CmpAbs(big.NewInt(wordLimit)) < 0 {
			if !ok || big.NewInt(rq).Cmp(want) != 0 {
				t.Fatalf("roundQuo(%v, %v) = %d, %v; want %v", bx, bn, rq, ok, want)
			}
		} else if ok {
			t.Fatalf("roundQuo(%v, %v) = %d beyond the word range", bx, bn, rq)
		}
	}
	// Exact halves round toward zero, as ring.RoundQuoTo rounds them.
	for _, c := range [][3]int64{{5, 2, 2}, {-5, 2, -2}, {5, -2, -2}, {-5, -2, 2}, {7, 2, 3}, {3, 2, 1}} {
		if q, _ := roundQuo(wideOf(c[0]), wideOf(c[1])); q != c[2] {
			t.Errorf("roundQuo(%d, %d) = %d, want %d", c[0], c[1], q, c[2])
		}
	}
}

// TestFactorWordMatchesFactor: factorWord returns Factor's sorted prime
// powers on norms of every shape the word path meets: smooth numbers,
// prime powers, products of two primes that rho must split, primes.
func TestFactorWordMatchesFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	prime := func(bits int) int64 {
		for {
			p := rng.Int63n(1<<uint(bits)) | 1<<uint(bits-1) | 1
			if big.NewInt(p).ProbablyPrime(20) {
				return p
			}
		}
	}
	var ns []int64
	for i := 0; i < 300; i++ {
		ns = append(ns, 1+rng.Int63n(1<<31))
	}
	for i := 0; i < 60; i++ {
		p, q := prime(15+rng.Intn(10)), prime(15+rng.Intn(10))
		ns = append(ns, p*q, p*p, prime(30), p*q*int64(1+rng.Intn(100)))
	}
	ns = append(ns, 1, 2, 16417*16417*16417, 46441*50033, (1<<31)-1, 1<<40+15)
	for _, r := range []uint64{1, 3, 1<<20 + 7, 1<<31 - 1, 2147483647} {
		for _, n := range []uint64{r*r - 1, r * r, r*r + 2*r} {
			if got := isqrt(n); got*got > n || (got+1)*(got+1) <= n {
				t.Fatalf("isqrt(%d) = %d", n, got)
			}
		}
	}
	sv := NewSolver()
	for _, n := range ns {
		want, okWant := Factor(big.NewInt(n))
		got, ok := sv.factorWord(uint64(n))
		if ok != okWant || len(got) != len(want) {
			t.Fatalf("factorWord(%d) = %v, %v; Factor: %v, %v", n, got, ok, want, okWant)
		}
		for i := range got {
			if big.NewInt(int64(got[i].p)).Cmp(want[i].P) != 0 || got[i].e != want[i].E {
				t.Fatalf("factorWord(%d) = %v; Factor: %v", n, got, want)
			}
		}
	}
}

// TestRootModMatchesModSqrt: rootMod returns big.Int.ModSqrt's root of 2,
// −1 and −2 for primes of every class mod 8, whichever of its three
// methods (p ≡ 3 (mod 4), p ≡ 5 (mod 8), Tonelli–Shanks) applies.
func TestRootModMatchesModSqrt(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sv := NewSolver()
	checked := 0
	for checked < 2000 {
		p := rng.Int63n(1<<uint(3+rng.Intn(58))) | 1
		if p < 3 || !big.NewInt(p).ProbablyPrime(20) {
			continue
		}
		checked++
		bp := big.NewInt(p)
		for _, sq := range []int64{2, -1, -2} {
			r, ok := sv.rootMod(sq, uint64(p))
			want := new(big.Int).ModSqrt(new(big.Int).Mod(big.NewInt(sq), bp), bp)
			if ok != (want != nil) || ok && big.NewInt(int64(r)).Cmp(want) != 0 {
				t.Fatalf("rootMod(%d, %d) = %d, %v; ModSqrt: %v", sq, p, r, ok, want)
			}
		}
	}
}

// TestEuclidMatchesBig holds the word path's Euclidean steps to the big
// path's on random pairs, balanced and skewed by powers of λ: euclidO's
// remainder to ring.EuclideanDiv's, gcdO to ring.GCD, gcdS to gcdZSqrt2,
// and unitExponentWord to unitLambdaExponent on the units in range, their
// negatives and conjugates, and non-units beside them.
func TestEuclidMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	lambda := ring.Lambda.ToZOmega()
	omega := func() ring.ZOmega {
		r := int64(1) << uint(1+rng.Intn(20))
		z := ring.ZOmega{A: rng.Int63n(2*r) - r, B: rng.Int63n(2*r) - r, C: rng.Int63n(2*r) - r, D: rng.Int63n(2*r) - r}
		for m := rng.Intn(8); m > 0; m-- {
			z = z.Mul(lambda)
		}
		return z
	}
	for i := 0; i < 20000; i++ {
		z, w := omega(), omega()
		if w.IsZero() {
			continue
		}
		bz, bw := ring.BOmegaFromZOmega(z), ring.BOmegaFromZOmega(w)
		r, ok := euclidO(z, w)
		if _, want := ring.EuclideanDiv(bz, bw); !ok || !ring.BOmegaFromZOmega(r).Equal(want) {
			t.Fatalf("euclidO(%v, %v) = %v, %v; ring.EuclideanDiv: %v", z, w, r, ok, want)
		}
		g, ok := gcdO(z, w)
		if want := ring.GCD(bz, bw); !ok || !ring.BOmegaFromZOmega(g).Equal(want) {
			t.Fatalf("gcdO(%v, %v) = %v, %v; ring.GCD: %v", z, w, g, ok, want)
		}
		a, b := z.Norm2(), w.Norm2()
		if b.IsZero() {
			continue
		}
		gs, ok := gcdS(a, b)
		gb := gcdZSqrt2(ring.BSqrt2FromZSqrt2(a), ring.BSqrt2FromZSqrt2(b))
		if !ok || !ring.BSqrt2FromZSqrt2(gs).Equal(gb) {
			t.Fatalf("gcdS(%v, %v) = %v, %v; gcdZSqrt2: %v", a, b, gs, ok, gb)
		}
	}
	for j := -49; j <= 49; j++ {
		for _, q := range []ring.ZSqrt2{lambdaPow(j), lambdaPow(j).Neg(), lambdaPow(j).Bullet(), {A: lambdaPow(j).A + 1, B: lambdaPow(j).B}} {
			got, ok := unitExponentWord(q)
			want := unitLambdaExponent(ring.BSqrt2FromZSqrt2(q))
			if ok != (want != nil) || ok && got != *want {
				t.Fatalf("unitExponentWord(%v) = %d, %v; unitLambdaExponent: %v", q, got, ok, want)
			}
		}
	}
}

// TestSolveGoldenPaths runs the golden set through the word path and the
// reference separately: below the bounds the word path answers every ξ
// with the reference's answer, and above them it refuses every ξ.
func TestSolveGoldenPaths(t *testing.T) {
	word := NewSolver()
	counts := map[outcome]int{}
	for _, xi := range goldenXis() {
		tw, out := word.solveWord(xi)
		counts[out]++
		if above := !belowNormLimit(xi); above != (out == refused) {
			t.Fatalf("ξ = %v (|N| ≥ 2^31: %v): word path outcome %d", xi, above, out)
		}
		if out != refused {
			tb, ok := solveBig(ring.BSqrt2FromZSqrt2(xi))
			sameAnswer(t, xi, tw, out, tb, ok)
		}
	}
	t.Logf("word path: %d solved, %d without solution, %d refused",
		counts[solved], counts[noSolution], counts[refused])
}

// sameAnswer fails unless the word path's answer (tw, out) is the
// reference's (tb, ok), and any t returned verifies.
func sameAnswer(t *testing.T, xi ring.ZSqrt2, tw ring.ZOmega, out outcome, tb ring.BOmega, ok bool) {
	t.Helper()
	if (out == solved) != ok {
		t.Fatalf("ξ = %v: word path outcome %d, reference ok=%v (t = %v)", xi, out, ok, tb)
	}
	if !ok {
		return
	}
	if got := ring.BOmegaFromZOmega(tw); !got.Equal(tb) {
		t.Fatalf("ξ = %v: word path t = %v, reference t = %v", xi, got, tb)
	}
	if !tb.Norm2().Equal(ring.BSqrt2FromZSqrt2(xi)) {
		t.Fatalf("ξ = %v: t = %v does not verify", xi, tb)
	}
}

// refusedCases are solvable ξ the word path must refuse: norms just past
// wordNormLimit, coefficients at wordLimit, and ξ = 32·λ^−40, whose
// coefficients (56 bits) and norm (2^10) are in range but whose leftover
// unit λ^−50 is not.
func refusedCases() []ring.ZSqrt2 {
	return []ring.ZSqrt2{
		{A: 50339, B: 13902},                          // N = 2147483713 > 2^31, a prime ≡ 1
		{A: 46349},                                    // N = 46349² > 2^31, a prime ≡ 5
		lambdaPows[49].Mul(ring.Lambda),               // λ^50: coefficients past 2^62, within int64
		{A: 32745181062039584, B: -23154339580149504}, // 32·λ^−40
	}
}

// TestSolveAboveBound drives ξ above the bounds, and one that leaves the
// word range midway, through Solve: the word path refuses each, so Solve
// reports none, though the reference solves every one.
func TestSolveAboveBound(t *testing.T) {
	sv := NewSolver()
	for _, xi := range refusedCases() {
		if _, out := sv.solveWord(xi); out != refused {
			t.Fatalf("ξ = %v: word path outcome %d, want a refusal", xi, out)
		}
		if got, ok := sv.Solve(xi); ok {
			t.Fatalf("ξ = %v: Solve returned t = %v past the word bounds", xi, got)
		}
		if _, ok := solveBig(ring.BSqrt2FromZSqrt2(xi)); !ok {
			t.Fatalf("ξ = %v has a solution, but the reference found none", xi)
		}
	}
}

// FuzzSolve compares the word path with the reference on fuzzed ξ = a +
// b√2: where the word path answers, the reference gives the same answer
// (both no solution, or the same t) and any t verifies exactly; ξ at or
// past either bound must be refused. Within the bounds a refusal is
// allowed (a value that leaves the word range midway ends the call), so it
// is checked only where it is required. The seeds, the golden edge cases
// and ξ on both sides of each bound, run with every `go test`;
// `go test -fuzz FuzzSolve ./internal/dioph/` searches further.
func FuzzSolve(f *testing.F) {
	for _, e := range goldenEdgeCases {
		f.Add(e[0], e[1])
	}
	for _, xi := range refusedCases() {
		f.Add(xi.A, xi.B)
	}
	l49 := lambdaPows[49] // the largest power of λ in range
	f.Add(l49.A, l49.B)
	f.Add(int64(46337), int64(0)) // N = 46337² < 2^31, a prime ≡ 1
	f.Fuzz(func(t *testing.T, a, b int64) {
		xi := ring.ZSqrt2{A: a, B: b}
		tw, out := NewSolver().solveWord(xi)
		inRange := a > -wordLimit && a < wordLimit && b > -wordLimit && b < wordLimit && belowNormLimit(xi)
		if !inRange && out != refused {
			t.Fatalf("ξ = %v is past the bounds but the word path answered (%d)", xi, out)
		}
		if out == refused {
			return
		}
		tb, ok := solveBig(ring.BSqrt2FromZSqrt2(xi))
		sameAnswer(t, xi, tw, out, tb, ok)
	})
}
