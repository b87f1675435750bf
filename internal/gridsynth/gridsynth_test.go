package gridsynth

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/grid"
	"repro/internal/qmat"
	"repro/internal/ring"
	"repro/synth/trace"
)

// TestRzMeetsThreshold: for a spread of angles and thresholds, the output
// must satisfy the error bound and actually be a Clifford+T word.
func TestRzMeetsThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, eps := range []float64{0.3, 0.1, 0.03, 0.01} {
		for i := 0; i < 6; i++ {
			theta := rng.Float64()*4*math.Pi - 2*math.Pi
			res, err := Rz(theta, eps, Options{})
			if err != nil {
				t.Fatalf("Rz(%v, %v): %v", theta, eps, err)
			}
			if res.Error > eps*(1+1e-6)+1e-7 {
				t.Fatalf("error %v exceeds eps %v", res.Error, eps)
			}
			if d := qmat.Distance(qmat.Rz(theta), res.Seq.Matrix()); math.Abs(d-res.Error) > 1e-9 {
				t.Fatalf("reported error %v but sequence realizes %v", res.Error, d)
			}
			if res.TCount != res.Seq.TCount() {
				t.Fatal("T count metadata mismatch")
			}
		}
	}
}

// TestRzExactAngles: multiples of π/4 must synthesize exactly with ≤ 1 T
// gate (footnote 3 of the paper).
func TestRzExactAngles(t *testing.T) {
	for mult := -8; mult <= 8; mult++ {
		theta := float64(mult) * math.Pi / 4
		res, err := Rz(theta, 1e-8, Options{})
		if err != nil {
			t.Fatalf("Rz(%dπ/4): %v", mult, err)
		}
		if res.Error > 1e-7 {
			t.Fatalf("Rz(%dπ/4) error %v, want ~0", mult, res.Error)
		}
		if res.TCount > 1 {
			t.Fatalf("Rz(%dπ/4) used %d T gates, want ≤ 1", mult, res.TCount)
		}
	}
}

// TestRzTCountScaling: T count must grow like ~3·log2(1/ε) + O(1) — the
// gridsynth shape the paper's baselines rely on. We check the growth rate
// sits in a [2, 5]·log2(1/ε) window to allow constant offsets.
func TestRzTCountScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	epsList := []float64{1e-1, 1e-2, 1e-3}
	avg := make([]float64, len(epsList))
	const n = 4
	for i := 0; i < n; i++ {
		theta := rng.Float64()*2*math.Pi - math.Pi
		for j, eps := range epsList {
			res, err := Rz(theta, eps, Options{})
			if err != nil {
				t.Fatalf("Rz(%v, %v): %v", theta, eps, err)
			}
			avg[j] += float64(res.TCount) / n
		}
	}
	// Slope between eps=1e-1 and 1e-3: Δlog2(1/ε) = log2(1e2) ≈ 6.64.
	slope := (avg[2] - avg[0]) / (math.Log2(1e3) - math.Log2(1e1))
	if slope < 1.5 || slope > 6 {
		t.Errorf("T-count slope %v per log2(1/ε); want ≈3 (gridsynth shape). Avgs: %v", slope, avg)
	}
}

// TestU3IsThreeRotations: the Rz-workflow U3 synthesis must meet its error
// budget and cost roughly 3x a single rotation.
func TestU3IsThreeRotations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3; i++ {
		u := qmat.HaarRandom(rng)
		res, err := U3(u, 0.03, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Error > 0.03 {
			t.Fatalf("U3 error %v exceeds budget", res.Error)
		}
		single, err := Rz(1.2345, 0.01, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.TCount < single.TCount {
			t.Fatalf("U3 T count %d suspiciously below single-rotation %d", res.TCount, single.TCount)
		}
	}
}

func TestRzRejectsBadEps(t *testing.T) {
	if _, err := Rz(1.0, 0, Options{}); err == nil {
		t.Error("eps=0 should error")
	}
	if _, err := Rz(1.0, 1.5, Options{}); err == nil {
		t.Error("eps>1 should error")
	}
	if _, err := Rz(1.0, math.NaN(), Options{}); err == nil || errors.Is(err, ErrNoSolution) {
		t.Errorf("eps=NaN: error %v, want the range error", err)
	}
	if _, err := Rz(math.Inf(1), 1e-2, Options{}); err == nil || errors.Is(err, ErrNoSolution) {
		t.Errorf("theta=+Inf: error %v, want a refusal", err)
	}
}

// TestAdmitsOnlyDoublyNonNegative: at each k that Rz scans in full, the
// admitted count its trace records is the number of scanned candidates
// with ξ = 2^k − |u|² doubly non-negative and a predicted distance within
// the bound. At 1e-7 and 1e-8 the scan also yields points just outside a
// disk that pass PreError; the test requires that some do, so it fails if
// Rz admits them.
func TestAdmitsOnlyDoublyNonNegative(t *testing.T) {
	tr := trace.New(trace.Config{SampleRatio: 1})
	rng := rand.New(rand.NewSource(3))
	excluded := 0
	for _, eps := range []float64{1e-7, 1e-8} {
		admit := eps*(1+1e-6) + 1e-7 + 1e-12
		for i := 0; i < 6; i++ {
			theta := rng.Float64()*4*math.Pi - 2*math.Pi
			root := tr.Start("rz")
			res, err := Rz(theta, eps, Options{Trace: root})
			root.End()
			if err != nil {
				t.Fatalf("Rz(%v, %v): %v", theta, eps, err)
			}
			slivers := [2]*grid.Sliver{grid.NewSliver(theta, eps, admit), grid.NewSliver(theta-math.Pi/4, eps, admit)}
			for _, ks := range root.Children() {
				k, _ := strconv.Atoi(ks.Attr("k"))
				if k == res.K {
					continue // stopped at the solution
				}
				pow := ring.BSqrt2{A: new(big.Int).Lsh(big.NewInt(1), uint(k)), B: new(big.Int)}
				want := 0
				for _, sl := range slivers {
					sl.Scan(k, func(c grid.Candidate) bool {
						if sl.PreError(c.U, k) > admit {
							return true
						}
						xi := pow.Sub(ring.BOmegaFromZOmega(c.U).Norm2())
						if xi.Sign() >= 0 && xi.Bullet().Sign() >= 0 {
							want++
						} else {
							excluded++
						}
						return true
					})
				}
				if got := ks.Attr("admitted"); got != strconv.Itoa(want) {
					t.Fatalf("Rz(%v, %v) k=%d: admitted %s, want %d", theta, eps, k, got, want)
				}
			}
		}
	}
	if excluded == 0 {
		t.Fatal("no scanned candidate with ξ not doubly non-negative passed PreError")
	}
}
