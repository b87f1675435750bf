package synth

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/circuit"
	"repro/internal/resource"
	"repro/internal/transpile"
	"repro/optimize"
	"repro/synth/multiqubit"
	"repro/synth/trace"
)

// Pass is one circuit-to-circuit compilation stage. Passes are composed by
// a Pipeline and share a PassContext carrying the backend, error budget,
// cache, stats and progress hooks; each pass returns a new circuit (or the
// input unchanged) and records what it learned in pc.Stats.
type Pass interface {
	// Name is the stable identifier used by WithPasses callers, the
	// cmd/compile -passes flag, and progress events.
	Name() string
	// Run transforms c under the shared context. Implementations must not
	// mutate c in place — callers may retain it.
	Run(pc *PassContext, c *circuit.Circuit) (*circuit.Circuit, error)
}

// PassContext is the shared state of one pipeline run: the synthesis
// backend and base request, the concurrency and cache configuration, the
// circuit-level error budget, and the accumulating stats. It is created by
// (*Pipeline).Run; passes read the configuration and write Stats.
type PassContext struct {
	// Ctx is the run's cancellation context.
	Ctx context.Context
	// Backend performs per-rotation synthesis for the Lower pass.
	Backend Backend
	// Req is the base request. In per-rotation mode (CircuitEpsilon == 0)
	// Req.Epsilon applies to every rotation, as in Compiler.CompileBatch.
	Req Request
	// Workers bounds the Lower pass's pool (0 = GOMAXPROCS).
	Workers int
	// Cache is the shared synthesis cache (never nil during a run).
	Cache *Cache
	// IR selects the lowering workflow (IRAuto resolves per backend).
	IR IR
	// CircuitEpsilon, when positive, is the circuit-level error budget ε:
	// the Lower pass splits it across the nontrivial rotations with the
	// Budget strategy instead of using Req.Epsilon per rotation.
	CircuitEpsilon float64
	// Budget selects the ε-splitting strategy.
	Budget BudgetStrategy
	// Progress, when set, receives pass-start and synthesis-progress
	// events.
	Progress func(ProgressEvent)
	// Span is the trace span of the pass currently running (nil when the
	// run is untraced — all span operations then no-op). Pipeline.Run
	// repoints it at a fresh child of the run's span before each pass, so
	// a pass that opens sub-spans always nests under its own timing.
	Span *trace.Span
	// Observe, when set, is handed to the Lower pass's compiler as its
	// per-synthesis metrics hook (see Compiler.Observe).
	Observe func(SynthObservation)
	// Stats accumulates across passes.
	Stats *PipelineStats
}

// basis resolves the transpile basis for the configured IR and backend —
// CX+H+RZ for gridsynth under IRAuto (the workflow the paper evaluates it
// on), CX+U3 otherwise.
func (pc *PassContext) basis() transpile.Basis {
	if pc.IR == IRRz || (pc.IR == IRAuto && pc.Backend != nil && pc.Backend.Name() == "gridsynth") {
		return transpile.BasisRz
	}
	return transpile.BasisU3
}

// event emits a progress event when a hook is installed.
func (pc *PassContext) event(pass string, done, total int) {
	if pc.Progress != nil {
		pc.Progress(ProgressEvent{Pass: pass, Done: done, Total: total})
	}
}

// ProgressEvent reports pipeline progress: one event per pass start
// (Done == Total == 0), plus one per completed synthesis inside the Lower
// pass (Done in 1..Total over the distinct rotations being synthesized).
type ProgressEvent struct {
	Pass        string
	Done, Total int
}

// PassTiming records one executed pass.
type PassTiming struct {
	Name string
	Wall time.Duration
}

// PipelineStats aggregates everything a pipeline run learned.
type PipelineStats struct {
	// Setting is the winning transpiler setting; IRRotations counts the
	// nontrivial rotations in the IR the Transpile pass produced.
	Setting     transpile.Setting
	IRRotations int
	// Rotations counts rotations actually synthesized by Lower; ErrorBound
	// is the additive sum of realized per-rotation errors (the guarantee
	// compared against CircuitEpsilon); MaxError is the worst single one.
	Rotations  int
	ErrorBound float64
	MaxError   float64
	// Epsilon and Strategy echo the circuit-level budget configuration
	// (Epsilon 0 = per-rotation mode).
	Epsilon  float64
	Strategy BudgetStrategy
	// Unique counts distinct syntheses; Hits and Misses count every cache
	// lookup the run performed, one per synthesizable rotation.
	Unique       int
	Hits, Misses int
	// Resources is filled by the EstimateResources pass.
	Resources *resource.Estimate
	// Opt aggregates what the optimizer passes (OptimizeRotations,
	// OptimizeCliffordT) did; nil when no optimizer pass ran.
	Opt *OptStats
	// Fuse aggregates what the FuseBlocks pass did; nil when it didn't run.
	Fuse *multiqubit.FuseStats
	// Passes records the executed pass sequence with wall times.
	Passes []PassTiming
}

// OptStats is the optimizer passes' accounting: the pre-lowering
// rotation delta (OptimizeRotations) and the post-lowering T-count
// delta plus fixed-point driver stats (OptimizeCliffordT).
type OptStats struct {
	// PreRotationsBefore/After bracket the pre-lowering pass: nontrivial
	// rotations in the IR before and after parity folding — the
	// synthesis work the optimizer removed before it was ever paid for.
	PreRotationsBefore, PreRotationsAfter int
	// TCountBefore/After bracket the post-lowering pass: T gates in the
	// lowered Clifford+T circuit before and after the fixed-point run.
	TCountBefore, TCountAfter int
	// Iterations counts the driver's full rule sweeps; Converged is
	// false only when some post-lowering run had its safety ceiling cut
	// the run short (vacuously true when no optct pass ran).
	Iterations int
	Converged  bool
	// RuleHits counts, per optimizer name, the sweeps in which that rule
	// strictly improved the circuit.
	RuleHits map[string]int
}

// TSaved is the post-lowering pass's headline delta.
func (o *OptStats) TSaved() int { return o.TCountBefore - o.TCountAfter }

// opt lazily allocates the optimizer stats block (Converged seeds true
// so repeated optct passes can AND their convergence into it).
func (s *PipelineStats) opt() *OptStats {
	if s.Opt == nil {
		s.Opt = &OptStats{Converged: true}
	}
	return s.Opt
}

// fuse lazily allocates the block-fusion stats block.
func (s *PipelineStats) fuse() *multiqubit.FuseStats {
	if s.Fuse == nil {
		s.Fuse = &multiqubit.FuseStats{}
	}
	return s.Fuse
}

// passFunc adapts a named function to Pass.
type passFunc struct {
	name string
	run  func(*PassContext, *circuit.Circuit) (*circuit.Circuit, error)
}

func (p passFunc) Name() string { return p.name }
func (p passFunc) Run(pc *PassContext, c *circuit.Circuit) (*circuit.Circuit, error) {
	return p.run(pc, c)
}

// NewPass wraps a function as a custom Pass for WithPasses callers.
func NewPass(name string, run func(*PassContext, *circuit.Circuit) (*circuit.Circuit, error)) Pass {
	return passFunc{name: name, run: run}
}

// Transpile returns the IR-selection pass: the best of the paper's 16
// transpiler settings (fewest nontrivial rotations) for the workflow
// basis, recording the winning setting and IR rotation count.
func Transpile() Pass {
	return passFunc{name: "transpile", run: func(pc *PassContext, c *circuit.Circuit) (*circuit.Circuit, error) {
		ir, setting := transpile.BestSetting(c, pc.basis())
		pc.Stats.Setting = setting
		pc.Stats.IRRotations = ir.CountRotations()
		return ir, nil
	}}
}

// FuseRotations returns the rotation-fusion pass: adjacent single-qubit
// gates merge into one rotation (U3 basis) or adjacent RZ/phase gates sum
// their angles (Rz basis), shrinking the synthesis workload without
// changing the unitary. Idempotent after Transpile (whose winning setting
// already merges), but load-bearing in hand-built pipelines that skip it.
func FuseRotations() Pass {
	return passFunc{name: "fuse", run: func(pc *PassContext, c *circuit.Circuit) (*circuit.Circuit, error) {
		if pc.basis() == transpile.BasisRz {
			return transpile.MergeRz(c), nil
		}
		return transpile.Merge1Q(c), nil
	}}
}

// SnapTrivial returns the pass replacing every trivial (π/4-multiple)
// rotation with exact discrete gates, consuming no synthesis budget
// (footnote 3 of the paper). Lower also snaps trivial rotations it
// encounters, so this pass is about moving the exact rewrites ahead of
// budget allocation and about pipelines that lower some other way.
func SnapTrivial() Pass {
	return passFunc{name: "snap", run: func(pc *PassContext, c *circuit.Circuit) (*circuit.Circuit, error) {
		out := circuit.New(c.N)
		for _, op := range c.Ops {
			if op.G.IsRotation() && trivialRotation(op) {
				snapTrivial(out, op)
				continue
			}
			out.Add(op)
		}
		return out, nil
	}}
}

// trivialRotation reports whether op is a π/4-multiple rotation that
// snaps to discrete gates exactly, consuming no synthesis.
func trivialRotation(op circuit.Op) bool {
	tmp := circuit.New(1)
	tmp.Add(circuit.Op{G: op.G, Q: [2]int{0, -1}, P: op.P})
	return tmp.CountRotations() == 0
}

// snapTrivial appends the exact Rz-basis rewrite of the trivial rotation
// op to out.
func snapTrivial(out *circuit.Circuit, op circuit.Op) {
	tmp := circuit.New(1)
	tmp.Add(circuit.Op{G: op.G, Q: [2]int{0, -1}, P: op.P})
	for _, o := range transpile.ToRzBasis(tmp).Ops {
		o.Q[0] = op.Q[0]
		out.Add(o)
	}
}

// FuseBlocks returns the two-qubit block-fusion pass: maximal runs of
// gates confined to a qubit pair are multiplied into one 4x4 unitary and
// re-synthesized through the KAK decomposition into ≤3 CX plus U3
// rotations, kept only when strictly cheaper (fewer two-qubit gates, or
// equally many with fewer nontrivial rotations). It runs best BEFORE
// Transpile: the emitted CX+U3 blocks are exactly what the transpiler
// settings consume, and collapsing entangler runs early shrinks both the
// two-qubit count and the rotation workload every later pass sees.
// Records what it did in Stats.Fuse.
func FuseBlocks() Pass {
	return passFunc{name: "fuse2q", run: func(pc *PassContext, c *circuit.Circuit) (*circuit.Circuit, error) {
		out, fs := multiqubit.Fuse(c)
		st := pc.Stats.fuse()
		st.Blocks += fs.Blocks
		st.Candidates += fs.Candidates
		st.OpsFused += fs.OpsFused
		st.CXSaved += fs.CXSaved
		return out, nil
	}}
}

// Lower returns the synthesis pass: one counted cache lookup per
// nontrivial rotation, a worker pool over the distinct misses, then
// assembly into a Clifford+T circuit — Compiler.CompileBatch's core over
// the circuit's rotations. Under a circuit-level budget
// (CircuitEpsilon > 0) each rotation synthesizes at its allocated share;
// otherwise every rotation uses Req.Epsilon.
func Lower() Pass {
	return passFunc{name: "lower", run: runLower}
}

func runLower(pc *PassContext, c *circuit.Circuit) (*circuit.Circuit, error) {
	if pc.Backend == nil {
		return nil, fmt.Errorf("no backend configured")
	}
	comp := &Compiler{Backend: pc.Backend, Req: pc.Req, Workers: pc.Workers, Cache: pc.Cache, Observe: pc.Observe}
	scope := pc.Backend.Name()
	var epss []float64
	if pc.CircuitEpsilon > 0 {
		epss = AllocateBudget(c, pc.CircuitEpsilon, pc.Budget)
	}

	// One job per nontrivial rotation, in op order.
	var jobs []opJob
	for i, op := range c.Ops {
		if !synthesizable(op) {
			continue
		}
		req := pc.Req
		if epss != nil {
			req.Epsilon = epss[i]
		}
		jobs = append(jobs, opJob{
			k:      KeyOf(op, scope, req.Epsilon, req.cacheCfg()),
			target: op.Matrix1Q(),
			req:    req,
		})
	}

	// Workers report progress concurrently, so delivery is serialized
	// here — the user hook never needs to be goroutine-safe. Everything
	// runs under the pass span: the scan and its peer lookups, the per-op
	// synthesis spans the workers open, and cluster pushes.
	var pmu sync.Mutex
	progress := func(done, total int) {
		pmu.Lock()
		pc.event("lower", done, total)
		pmu.Unlock()
	}
	results, st, err := comp.compileJobs(trace.NewContext(pc.Ctx, pc.Span), jobs, progress)
	pc.Stats.Hits += st.Hits
	pc.Stats.Misses += st.Misses
	pc.Stats.Unique += st.Unique
	if err != nil {
		return nil, fmt.Errorf("lowering %s IR: %w", scope, err)
	}
	// A contained backend panic fails only its op in batch mode, but a
	// circuit cannot be assembled around a hole — surface it as this
	// compile's error (the process survives; the request does not).
	for _, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("lowering %s IR: %w", scope, res.Err)
		}
	}

	out := circuit.New(c.N)
	ji := 0
	for _, op := range c.Ops {
		if !op.G.IsRotation() {
			out.Add(op)
			continue
		}
		if trivialRotation(op) {
			snapTrivial(out, op)
			continue
		}
		res := results[ji]
		ji++
		for _, o := range circuit.FromSequence(res.Seq, op.Q[0]) {
			out.Add(o)
		}
		pc.Stats.Rotations++
		pc.Stats.ErrorBound += res.Error
		if res.Error > pc.Stats.MaxError {
			pc.Stats.MaxError = res.Error
		}
	}
	return out, nil
}

// OptimizeRotations returns the pre-lowering optimizer pass: parity
// phase folding (the optimize package's "foldphases" rule) over the IR,
// merging and cancelling RZ/phase gates that act on the same CNOT
// parity so fewer rotations ever reach the synthesizer. Adjacency-based
// fusion (FuseRotations) cannot see these merges — parity tracking
// commutes phases through entire CX regions. The pass is most effective
// on the Rz-basis IR; on the CX+U3 IR only explicit phase gates fold.
// Records the rotation delta in Stats.Opt.
func OptimizeRotations() Pass {
	return passFunc{name: "optrot", run: func(pc *PassContext, c *circuit.Circuit) (*circuit.Circuit, error) {
		before := c.CountRotations()
		out, err := optimize.FoldPhases().Optimize(c)
		if err != nil {
			return nil, err
		}
		st := pc.Stats.opt()
		st.PreRotationsBefore += before
		st.PreRotationsAfter += out.CountRotations()
		return out, nil
	}}
}

// OptimizeCliffordT returns the post-lowering optimizer pass: a
// fixed-point optimize.Driver run over the lowered Clifford+T circuit.
// names select rules from the optimize registry (empty = the default
// foldphases + peephole chain); unknown names surface as a pass error.
// Records the T-count delta, iteration count, and per-rule hit counters
// in Stats.Opt. The optimizer rules preserve the unitary exactly, so
// the realized error bound is untouched.
func OptimizeCliffordT(names ...string) Pass {
	return passFunc{name: "optct", run: func(pc *PassContext, c *circuit.Circuit) (*circuit.Circuit, error) {
		d, err := optimize.NewDriverNamed(names...)
		if err != nil {
			return nil, err
		}
		res, err := d.Run(c)
		if err != nil {
			return nil, err
		}
		st := pc.Stats.opt()
		st.TCountBefore += res.Before.TCount
		st.TCountAfter += res.After.TCount
		st.Iterations += res.Iterations
		st.Converged = st.Converged && res.Converged
		if st.RuleHits == nil {
			st.RuleHits = map[string]int{}
		}
		for name, hits := range res.RuleHits {
			st.RuleHits[name] += hits
		}
		return res.Circuit, nil
	}}
}

// EstimateResources returns the pass attaching a surface-code resource
// estimate (internal/resource's model) for the current circuit to
// Stats.Resources. The circuit flows through unchanged, so the pass can
// sit anywhere after Lower.
func EstimateResources() Pass {
	return passFunc{name: "estimate", run: func(pc *PassContext, c *circuit.Circuit) (*circuit.Circuit, error) {
		est := resource.DefaultParams().Estimate(c.N, c.TCount(), c.TDepth())
		pc.Stats.Resources = &est
		return c, nil
	}}
}

// DefaultPasses is the canned Figure 3(a) workflow: transpile → fuse →
// snap → lower → estimate.
func DefaultPasses() []Pass {
	return []Pass{Transpile(), FuseRotations(), SnapTrivial(), Lower(), EstimateResources()}
}

// PassNames lists the built-in pass names in canned-pipeline order
// (the optimizer passes sit where WithOptimize inserts them; fuse2q sits
// where WithFuseBlocks inserts it, ahead of transpile).
func PassNames() []string {
	return []string{"fuse2q", "transpile", "optrot", "fuse", "snap", "lower", "optct", "estimate"}
}

// LookupPass resolves a built-in pass by name (the cmd/compile -passes
// vocabulary).
func LookupPass(name string) (Pass, bool) {
	switch name {
	case "fuse2q":
		return FuseBlocks(), true
	case "transpile":
		return Transpile(), true
	case "optrot":
		return OptimizeRotations(), true
	case "fuse":
		return FuseRotations(), true
	case "snap":
		return SnapTrivial(), true
	case "lower":
		return Lower(), true
	case "optct":
		return OptimizeCliffordT(), true
	case "estimate":
		return EstimateResources(), true
	}
	return nil, false
}
