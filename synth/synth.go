// Package synth is the unified synthesis API: every synthesizer in the
// repository — trasyn (the paper's tensor-network search), the
// Ross–Selinger gridsynth baseline, Solovay–Kitaev, and the
// Synthetiq-style annealer — is exposed as a Backend behind one Request /
// Result pair, discovered through a named registry, and composed two
// ways: batch jobs through the Compiler service (worker pool, context
// cancellation, deterministic per-op seeding, shared bounded synthesis
// cache), and circuit compilation through the pass Pipeline (Transpile →
// FuseRotations → SnapTrivial → Lower → EstimateResources over a shared
// PassContext, with circuit-level error budgets).
//
// Rotation quick start:
//
//	be, _ := synth.Lookup("auto")
//	res, err := be.Synthesize(ctx, qmat.Rz(0.73), synth.Request{Epsilon: 1e-3})
//	fmt.Println(res.Backend, res.TCount, res.Error)
//
// Circuit quick start — compile a circuit to Clifford+T within a total
// error budget of 1e-2, split across its rotations:
//
//	circ, _ := circuit.ParseQASM(src)
//	pl, _ := synth.NewPipelineFor("auto", synth.WithCircuitEpsilon(1e-2))
//	out, err := pl.Run(ctx, circ)
//	fmt.Println(out.Circuit.TCount(), out.Stats.ErrorBound)
//
// Layering (see DESIGN.md for the full diagram):
//
//	cmd/*, examples/*          — CLIs and demos; talk to synth only
//	synth                      — Backend, registry, Pipeline + passes
//	                             (the one lowering path), Compiler, Cache
//	circuit, circuit/gen       — the public circuit IR (QASM in/out) and
//	                             workload generators
//	internal/{core,gridsynth,sk,anneal} — the engines
package synth

import (
	"context"
	"time"

	"repro/internal/gates"
	"repro/internal/qmat"
)

// DefaultSeed is the seed used when Request.Seed is nil. Backends are
// deterministic for a fixed (target, Request) pair — nothing seeds from
// the clock — with one caveat: the annealer's restart budget is wall
// clock, so how far its deterministic random walk proceeds can vary with
// machine load.
const DefaultSeed int64 = 1

// DefaultEpsilon is the error threshold assumed by epsilon-driven backends
// (gridsynth, sk, anneal, auto) when Request.Epsilon is zero.
const DefaultEpsilon = 1e-2

// Request is the one synthesis request type shared by all backends. The
// zero value is usable: backends fill in their documented defaults.
type Request struct {
	// Epsilon is the target unitary distance (Eq. 2). Zero means "backend
	// default": best-effort for trasyn, DefaultEpsilon for epsilon-driven
	// backends.
	Epsilon float64
	// TBudget is trasyn's per-tensor T budget m (default 5). Other
	// backends use their own fixed enumeration tables and ignore it.
	TBudget int
	// Tensors is trasyn's maximum MPS length l (default 4 → T ≤ 4·TBudget).
	Tensors int
	// Samples is trasyn's MPS sample count k (default 2000).
	Samples int
	// Beam switches trasyn to the deterministic beam-search sampler.
	Beam bool
	// Seed pins the sampling randomness. nil selects DefaultSeed; use
	// Seed(0) for an explicit zero seed — seed 0 is a real seed, not an
	// alias for "unset".
	Seed *int64
	// Timeout bounds one synthesis call in addition to any deadline already
	// on the context (the annealer also uses it as its restart budget).
	Timeout time.Duration
}

// Seed returns a *int64 for Request.Seed, distinguishing an explicit seed
// (including 0) from the unset default.
func Seed(v int64) *int64 { return &v }

// seed resolves the effective seed.
func (r Request) seed() int64 {
	if r.Seed == nil {
		return DefaultSeed
	}
	return *r.Seed
}

// eps resolves the effective threshold for epsilon-driven backends.
func (r Request) eps() float64 {
	if r.Epsilon <= 0 {
		return DefaultEpsilon
	}
	return r.Epsilon
}

// withDefaults fills the trasyn-shaped knobs.
func (r Request) withDefaults() Request {
	if r.TBudget <= 0 {
		r.TBudget = 5
	}
	if r.Tensors <= 0 {
		r.Tensors = 4
	}
	if r.Samples <= 0 {
		r.Samples = 2000
	}
	return r
}

// budget applies Request.Timeout on top of the caller's context.
func (r Request) budget(ctx context.Context) (context.Context, context.CancelFunc) {
	if r.Timeout > 0 {
		return context.WithTimeout(ctx, r.Timeout)
	}
	return ctx, func() {}
}

// Result is the one synthesis result type shared by all backends.
type Result struct {
	// Seq is the Clifford+T sequence in matrix-product order; its product
	// equals the target up to global phase, within Error.
	Seq gates.Sequence
	// Error is the realized unitary distance (Eq. 2) to the target.
	Error float64
	// TCount and Clifford are gate-count metadata for Seq.
	TCount   int
	Clifford int
	// Evals counts candidate configurations examined, when the backend
	// tracks them (trasyn); 0 otherwise.
	Evals int
	// Wall is the synthesis wall-clock time.
	Wall time.Duration
	// Backend names the backend that produced the result; for "auto" it is
	// the winning sub-backend.
	Backend string
	// Err, when non-nil, marks a contained per-op failure — a backend
	// panic recovered at the worker boundary. Seq is then empty and every
	// other field is zero except Backend; batch APIs report such ops
	// individually instead of failing the whole batch.
	Err error
}

// Backend is one synthesis engine. Implementations must be safe for
// concurrent use and honor context cancellation at their natural
// granularity (attempt / denominator-exponent / restart boundaries).
type Backend interface {
	// Name is the registry name.
	Name() string
	// Synthesize approximates target subject to req.
	Synthesize(ctx context.Context, target qmat.M2, req Request) (Result, error)
}

// finish stamps the shared metadata a backend result carries.
func finish(name string, start time.Time, seq gates.Sequence, errDist float64, evals int) Result {
	return Result{
		Seq:      seq,
		Error:    errDist,
		TCount:   seq.TCount(),
		Clifford: seq.CliffordCount(),
		Evals:    evals,
		Wall:     time.Since(start),
		Backend:  name,
	}
}
