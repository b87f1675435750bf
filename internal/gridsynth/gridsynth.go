// Package gridsynth is the Ross–Selinger baseline: ancilla-free Clifford+T
// approximation of Rz(θ) rotations (the paper's primary comparison point).
//
// For increasing denominator exponents k it enumerates numerator candidates
// u ∈ Z[ω] in the ε-sliver (package grid), solves the norm equation
// t·t† = 2^k − u·u† (package dioph), assembles the exact unitary
// V = (1/√2^k)[[u, −t†ω^g],[t, u†ω^g]] and synthesizes it into gates
// (package exact). Solutions are found "up to global phase": both the
// integer (g=0) and half (g=1) phase grids are searched, matching the
// paper's use of gridsynth's phase flag. T count grows as
// ≈ 3·log2(1/ε) + O(1), the known gridsynth shape.
package gridsynth

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dioph"
	"repro/internal/exact"
	"repro/internal/gates"
	"repro/internal/grid"
	"repro/internal/qmat"
	"repro/internal/ring"
	"repro/synth/trace"
)

// Options carries a search's cancellation and tracing; the zero value
// runs an uncanceled, untraced search.
type Options struct {
	// Cancel, when non-nil, aborts the search between denominator
	// exponents, returning ErrCanceled.
	Cancel <-chan struct{}
	// Trace, when non-nil, is the parent span the search records its
	// per-denominator-exponent candidate scans under (one child span per
	// k, with the admitted-candidate count). Nil — the normal case —
	// costs one pointer check per k.
	Trace *trace.Span
}

// Result is a synthesized Rz approximation.
type Result struct {
	Seq gates.Sequence // product equals Rz(θ) up to global phase, within Error
	// Error is the unitary distance Eq. (2) of Seq from the target,
	// computed in float64 by qmat.Distance, which has no value between 0
	// and 2^-26 ≈ 1.5e-8. So for eps near or below 1e-7 it cannot show
	// how far inside eps an answer lies, and Rz's acceptance bound
	// eps·(1+1e-6) + 1e-7 lets through answers whose Error exceeds eps.
	Error    float64
	TCount   int
	Clifford int // non-Pauli Clifford gates
	K        int // denominator exponent of the solution
}

// ErrNoSolution is returned when no solution is found within maxK.
var ErrNoSolution = errors.New("gridsynth: no solution within MaxK")

// ErrCanceled is returned when Options.Cancel fires mid-search.
var ErrCanceled = errors.New("gridsynth: canceled")

// candidatesPerK bounds the candidates admitted per (k, phase grid). Exact
// admission leaves only candidates whose norm equation can have a
// solution: over 100 random angles at each ε from 0.3 to 1e-8, no k
// admitted more than 7 on both grids together, and a search admitted
// 1.0–2.6 on average. The bound is a backstop no search is known to reach.
const candidatesPerK = 4096

// maxK is the largest k at which every value of the search meets exact
// synthesis's coefficient bound. An admitted u has ξ ≥ 0 and ξ• ≥ 0, and
// ξ + ξ• = 2·(2^k − Σ u's coefficients²), so that sum is at most 2^k;
// t·t† = ξ makes the sum of t's squared coefficients ξ's rational part,
// also at most 2^k. So every coefficient of u, t and V is at most
// 2^(k/2), below 2^exact.CoeffBits for k ≤ 57. No search comes near it
// (TestMaxKNeverBinds).
const maxK = 2*exact.CoeffBits - 1

// Rz synthesizes Rz(theta) to unitary distance ≤ eps. It accepts answers
// up to eps·(1+1e-6) + 1e-7, judged by Result.Error, a float64 distance
// with no value between 0 and about 1.5e-8.
//
// The hot-path state — candidate geometry per phase grid and the
// Diophantine solver with its word path's square-root memo — is created
// once here and reused across every (k, candidate) pair, so past that
// setup the search allocates only when the memo grows or it finds a
// solution. Every value from the scanned candidate to the gate sequence
// is an int64 ring element.
//
// Candidates stream lazily out of grid.Sliver.Scan, which enumerates the
// region whose points realize a distance within the acceptance bound,
// with both disks exact. Each is admitted only if ξ = 2^k − |u|² is
// doubly non-negative, decided exactly (no norm equation has a solution
// otherwise), and then if grid.Sliver.PreError — the distance the
// assembled unitary will realize, computed from the numerator alone — is
// within the bound. Only admitted candidates count toward candidatesPerK
// or reach the norm equation. Scan visits the candidates it shares with
// an enumeration of the ε-sliver in that enumeration's order, so widening
// the scanned region to the bound changes no answer that region does not
// contain.
func Rz(theta, eps float64, opt Options) (Result, error) {
	if !(eps > 0 && eps < 1) {
		return Result{}, fmt.Errorf("gridsynth: eps %v out of range (0,1)", eps)
	}
	if math.IsNaN(theta) || math.IsInf(theta, 0) {
		return Result{}, fmt.Errorf("gridsynth: theta %v is not finite", theta)
	}
	target := qmat.Rz(theta)
	solver := dioph.NewSolver() // reused across the search
	table := gates.Shared(4)    // exact synthesis's residual lookup
	// The final acceptance bound, shared by the PreError admission below
	// (with a hair of extra slack so borderline candidates reach the
	// authoritative post-synthesis check rather than being screened out).
	bound := eps*(1+1e-6) + 1e-7
	admit := bound + 1e-12
	// Phase grid g: direction rotated by ω^{g/2} = e^{igπ/8} (see package
	// doc); equivalent to synthesizing at θ − gπ/4.
	slivers := [2]*grid.Sliver{
		grid.NewSliver(theta, eps, admit),
		grid.NewSliver(theta-math.Pi/4, eps, admit),
	}
	for k := 0; k <= maxK; k++ {
		if opt.Cancel != nil {
			select {
			case <-opt.Cancel:
				return Result{}, ErrCanceled
			default:
			}
		}
		ks := opt.Trace.Child("gridsynth.k")
		ks.SetAttr("k", k)
		kAdmitted := 0
		for g := 0; g < 2; g++ {
			var (
				res      Result
				found    bool
				admitted int
			)
			sl := slivers[g]
			sl.Scan(k, func(cand grid.Candidate) bool {
				// Norm2 cannot overflow: the scan keeps u inside both disks
				// of radius √2^k to within a relative margin of about
				// 2^-46, so Σ u's coefficients² = (|u|² + |u•|²)/2 stays
				// below 2^58. Soundness does not rest on it: exact
				// synthesis checks V's unitarity, and the distance is
				// checked below.
				xi := ring.ZSqrt2{A: 1 << k}.Sub(cand.U.Norm2())
				if xi.Sign() < 0 || xi.Bullet().Sign() < 0 || sl.PreError(cand.U, k) > admit {
					return true // keep scanning; no budget spent
				}
				admitted++
				t, ok := solver.Solve(xi)
				if ok {
					v := exact.FromColumns(cand.U, t, k, g)
					if seq, err := exact.Synthesize(v, table); err == nil {
						if d := qmat.Distance(target, seq.Matrix()); d <= bound {
							res = Result{
								Seq:      seq,
								Error:    d,
								TCount:   seq.TCount(),
								Clifford: seq.CliffordCount(),
								K:        k,
							}
							found = true
							return false
						}
					}
				}
				return admitted < candidatesPerK
			})
			kAdmitted += admitted
			if found {
				ks.SetAttr("admitted", kAdmitted)
				ks.SetAttr("found", true)
				ks.End()
				return res, nil
			}
		}
		ks.SetAttr("admitted", kAdmitted)
		ks.End()
	}
	return Result{}, ErrNoSolution
}

// U3 synthesizes an arbitrary single-qubit unitary by decomposing it into
// three Rz rotations via Eq. (1) — the paper's "Rz workflow" applied to a
// fused U3 — and synthesizing each rotation at eps/3 (the error-budget
// split the paper applies to the baseline).
func U3(u qmat.M2, eps float64, opt Options) (Result, error) {
	theta, phi, lambda := qmat.ZYZAngles(u)
	part := eps / 3
	// Each of the three Rz legs gets its own span (the per-k scans of a
	// leg then nest under it) so a trace distinguishes which Euler angle
	// was expensive.
	rz := func(angle float64) (Result, error) {
		o := opt
		o.Trace = opt.Trace.Child("gridsynth.rz")
		o.Trace.SetAttr("theta", angle)
		r, err := Rz(angle, part, o)
		if err == nil {
			o.Trace.SetAttr("t_count", r.TCount)
		}
		o.Trace.End()
		return r, err
	}
	r1, err := rz(phi + math.Pi/2)
	if err != nil {
		return Result{}, err
	}
	r2, err := rz(theta)
	if err != nil {
		return Result{}, err
	}
	r3, err := rz(lambda - math.Pi/2)
	if err != nil {
		return Result{}, err
	}
	// U3 = Rz(φ+π/2)·H·Rz(θ)·H·Rz(λ−π/2) up to phase.
	seq := make(gates.Sequence, 0, len(r1.Seq)+len(r2.Seq)+len(r3.Seq)+2)
	seq = append(seq, r1.Seq...)
	seq = append(seq, gates.H)
	seq = append(seq, r2.Seq...)
	seq = append(seq, gates.H)
	seq = append(seq, r3.Seq...)
	d := qmat.Distance(u, seq.Matrix())
	return Result{
		Seq:      seq,
		Error:    d,
		TCount:   seq.TCount(),
		Clifford: seq.CliffordCount(),
		K:        max(r1.K, r2.K, r3.K),
	}, nil
}
