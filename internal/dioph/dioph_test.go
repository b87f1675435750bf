package dioph

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/ring"
)

func TestFactorSmall(t *testing.T) {
	cases := map[int64][]int64{
		2:       {2},
		12:      {2, 2, 3},
		97:      {97},
		1 << 20: {2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
		999983:  {999983}, // prime
		1000003: {1000003},
	}
	for n, want := range cases {
		fs, ok := Factor(big.NewInt(n))
		if !ok {
			t.Fatalf("Factor(%d) failed", n)
		}
		prod := big.NewInt(1)
		count := 0
		for _, pf := range fs {
			for i := 0; i < pf.E; i++ {
				prod.Mul(prod, pf.P)
				count++
			}
			if !pf.P.ProbablyPrime(20) {
				t.Errorf("Factor(%d) returned composite %v", n, pf.P)
			}
		}
		if prod.Int64() != n {
			t.Errorf("Factor(%d): product %v", n, prod)
		}
		if count != len(want) {
			t.Errorf("Factor(%d): %d prime factors, want %d", n, count, len(want))
		}
	}
}

func TestFactorRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		a := big.NewInt(rng.Int63n(1 << 30))
		b := big.NewInt(rng.Int63n(1 << 30))
		n := new(big.Int).Mul(a, b)
		if n.Sign() == 0 {
			continue
		}
		fs, ok := Factor(n)
		if !ok {
			t.Fatalf("Factor(%v) failed", n)
		}
		prod := big.NewInt(1)
		for _, pf := range fs {
			for e := 0; e < pf.E; e++ {
				prod.Mul(prod, pf.P)
			}
		}
		if prod.Cmp(n) != 0 {
			t.Fatalf("Factor(%v): product %v", n, prod)
		}
	}
}

func TestFactorRejectsNonPositive(t *testing.T) {
	if _, ok := Factor(big.NewInt(0)); ok {
		t.Error("Factor(0) should fail")
	}
	if _, ok := Factor(big.NewInt(-4)); ok {
		t.Error("Factor(-4) should fail")
	}
}

// verifies reports whether t·t† = ξ, checked in big.Int.
func verifies(t ring.ZOmega, xi ring.ZSqrt2) bool {
	return ring.BOmegaFromZOmega(t).Norm2().Equal(ring.BSqrt2FromZSqrt2(xi))
}

// TestSolveNormEquationOnRealizable: ξ = t·t† built from random t must be
// solvable, and any solution must verify exactly.
func TestSolveNormEquationOnRealizable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	solved := 0
	for i := 0; i < 120; i++ {
		tt := ring.ZOmega{
			A: rng.Int63n(19) - 9, B: rng.Int63n(19) - 9,
			C: rng.Int63n(19) - 9, D: rng.Int63n(19) - 9}
		xi := tt.Norm2()
		if xi.IsZero() {
			continue
		}
		got, ok := NewSolver().Solve(xi)
		if !ok {
			// Factoring budget may rarely fail; tolerate a few.
			continue
		}
		solved++
		if !verifies(got, xi) {
			t.Fatalf("solution does not verify: t=%v ξ=%v t·t†=%v", got, xi, got.Norm2())
		}
	}
	if solved < 100 {
		t.Fatalf("solved only %d/120 realizable norm equations", solved)
	}
}

// TestSolveNormEquationRejectsNegative: totally negative ξ is infeasible.
func TestSolveNormEquationRejectsNegative(t *testing.T) {
	if _, ok := NewSolver().Solve(ring.ZSqrt2{A: -3}); ok {
		t.Error("ξ = −3 should be infeasible")
	}
	// ξ = 1 − √2 has negative embedding.
	if _, ok := NewSolver().Solve(ring.ZSqrt2{A: 1, B: -1}); ok {
		t.Error("ξ = 1 − √2 should be infeasible (negative embedding)")
	}
}

// TestSolveNormEquationKnownInfeasible: ξ = 7 needs v_π even for p≡7 (mod 8);
// 7 = π·π• with v_π(7) = 1 odd, so no solution exists.
func TestSolveNormEquationKnownInfeasible(t *testing.T) {
	if tt, ok := NewSolver().Solve(ring.ZSqrt2{A: 7}); ok {
		t.Errorf("ξ = 7 reported solvable with t = %v (t·t† = %v)", tt, tt.Norm2())
	}
}

// TestSolveNormEquationSimpleKnown: small hand-checkable cases.
func TestSolveNormEquationSimpleKnown(t *testing.T) {
	cases := []ring.ZSqrt2{
		{A: 0, B: 0},  // t = 0
		{A: 1, B: 0},  // t = 1
		{A: 2, B: 0},  // t = √2-ish
		{A: 2, B: 1},  // norm 2: λ·√2? must verify exactly
		{A: 5, B: 0},  // p ≡ 5 (mod 8): t·t† = 5 solvable (norm 25)
		{A: 3, B: 1},  // N = 7: π with p ≡ 7... mixed; may be feasible or not — just check verification if solved
		{A: 17, B: 0}, // p ≡ 1 (mod 8)
	}
	for _, xi := range cases {
		got, ok := NewSolver().Solve(xi)
		if !ok {
			continue // feasibility varies; soundness is what we assert
		}
		if !verifies(got, xi) {
			t.Fatalf("ξ=%v: solution %v does not verify (t·t†=%v)", xi, got, got.Norm2())
		}
	}
	// ξ = 2 must be solvable: t = √2 works since √2·√2† = 2.
	// ξ = 5 must be solvable (5 ≡ 5 mod 8, splits in Z[ω]).
	// ξ = 17 must be solvable (17 ≡ 1 mod 8).
	for _, a := range []int64{2, 5, 17} {
		if _, ok := NewSolver().Solve(ring.ZSqrt2{A: a}); !ok {
			t.Errorf("ξ = %d should be solvable", a)
		}
	}
}

// TestSolveNormEquationLargeRealizable: ξ = t·t† for t with 16-bit
// coefficients has a norm far past the word path's bound. The reference
// solves most of them, and Solve refuses every one.
func TestSolveNormEquationLargeRealizable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	solved := 0
	for i := 0; i < 20; i++ {
		tt := ring.ZOmega{
			A: rng.Int63n(1 << 16), B: rng.Int63n(1 << 16),
			C: rng.Int63n(1 << 16), D: rng.Int63n(1 << 16)}
		xi := tt.Norm2()
		if got, ok := NewSolver().Solve(xi); ok {
			t.Fatalf("ξ = %v is past the norm bound, but Solve returned t = %v", xi, got)
		}
		ref, ok := solveBig(ring.BSqrt2FromZSqrt2(xi))
		if !ok {
			continue
		}
		solved++
		if !ref.Norm2().Equal(ring.BSqrt2FromZSqrt2(xi)) {
			t.Fatal("large solution does not verify")
		}
	}
	if solved < 10 {
		t.Fatalf("the reference solved only %d/20 large realizable instances", solved)
	}
}

// BenchmarkSolve times Solve on the golden ξ below the word bounds
// through one Solver, as a gridsynth search uses it: gridsynth's own ξ
// lie below them (norms up to 2^30 at ε = 1e-10), and Solve refuses the
// others before factoring.
func BenchmarkSolve(b *testing.B) {
	var xis []ring.ZSqrt2
	for _, xi := range goldenXis() {
		if belowNormLimit(xi) {
			xis = append(xis, xi)
		}
	}
	sv := NewSolver()
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		sv.Solve(xis[i%len(xis)])
	}
}
