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
	Seq      gates.Sequence // product equals Rz(θ) up to global phase, within Error
	Error    float64        // unitary distance Eq. (2)
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

// maxK caps the denominator exponent (k = 120 reaches ε ~ 1e-18).
const maxK = 120

// Rz synthesizes Rz(theta) to unitary distance ≤ eps.
//
// The hot-path state — candidate geometry per phase grid, the Diophantine
// solver with its word path's square-root memo, and the in-place ring
// temporaries that form ξ — is created once here and reused across every
// (k, candidate) pair, so the search allocates only when it finds a
// solution (plus unavoidable math/big growth).
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
	pow2k := ring.NewBSqrt2(1, 0)
	two := ring.NewBSqrt2(2, 0)
	// Per-search reusable state.
	var (
		scr        ring.Scratch
		u          ring.BOmega
		n2, xi, xb ring.BSqrt2
		solver     = dioph.NewSolver()
		table      = gates.Shared(4) // exact synthesis's residual lookup
	)
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
				u.SetZOmega(cand.U)
				u.Norm2To(&n2, &scr)
				xi.SubTo(pow2k, n2)
				xb.BulletTo(xi)
				if xi.Sign() < 0 || xb.Sign() < 0 || sl.PreError(cand.U, k) > admit {
					return true // keep scanning; no budget spent
				}
				admitted++
				t, ok := solver.Solve(xi)
				if ok {
					v := exact.FromColumns(u, t, k, g)
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
		pow2k.MulTo(pow2k, two, &scr)
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
