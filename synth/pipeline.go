package synth

import (
	"context"
	"fmt"
	"time"

	"repro/circuit"
	"repro/synth/trace"
)

// Pipeline is the composable circuit-compilation API: an ordered list of
// Passes over one shared PassContext (backend, error budget, worker pool,
// cache, progress hooks). The zero configuration — NewPipeline(backend) —
// is the paper's Figure 3(a) workflow: transpile to the workflow IR, fuse
// and snap rotations, lower every nontrivial rotation through the backend,
// and estimate fault-tolerant resources.
//
// The pipeline is immutable after construction and safe for concurrent
// Run calls when its Cache is (synth.Cache is); each Run gets a fresh
// PassContext and stats.
type Pipeline struct {
	backend    Backend
	req        Request
	workers    int
	cache      *Cache
	ir         IR
	circuitEps float64
	budget     BudgetStrategy
	progress   func(ProgressEvent)
	observe    func(SynthObservation)
	passes     []Pass
	optLevel   int
	optNames   []string
	fuse2q     bool
}

// Option configures a Pipeline at construction.
type Option func(*Pipeline)

// WithRequest sets the base synthesis request (trasyn knobs, seed,
// timeout, and — in per-rotation mode — the per-rotation epsilon).
func WithRequest(req Request) Option { return func(p *Pipeline) { p.req = req } }

// WithEpsilon sets the per-rotation error threshold (Request.Epsilon),
// keeping the other request knobs. Mutually exclusive in spirit with
// WithCircuitEpsilon, which takes precedence when both are set.
func WithEpsilon(eps float64) Option { return func(p *Pipeline) { p.req.Epsilon = eps } }

// WithCircuitEpsilon sets a circuit-level error budget ε: the Lower pass
// splits ε across the N nontrivial rotations of the IR (uniform ε/N by
// default; see WithBudgetStrategy) so the lowered circuit's total unitary
// distance to the IR is bounded by ε — the knob the paper's circuit
// results are stated in, which a uniform per-rotation epsilon cannot
// express.
func WithCircuitEpsilon(eps float64) Option { return func(p *Pipeline) { p.circuitEps = eps } }

// WithBudgetStrategy selects how a circuit-level ε is split (uniform
// per-rotation shares vs equal shares per distinct angle class).
func WithBudgetStrategy(s BudgetStrategy) Option { return func(p *Pipeline) { p.budget = s } }

// WithWorkers bounds the Lower pass's worker pool (0 = GOMAXPROCS).
func WithWorkers(n int) Option { return func(p *Pipeline) { p.workers = n } }

// WithCache shares a synthesis cache across pipelines and batch jobs.
func WithCache(c *Cache) Option { return func(p *Pipeline) { p.cache = c } }

// WithIR forces the lowering workflow (IRAuto resolves per backend).
func WithIR(ir IR) Option { return func(p *Pipeline) { p.ir = ir } }

// WithProgress installs a progress hook: one event per pass start and one
// per completed synthesis inside the Lower pass. Delivery is serialized —
// worker goroutines report through a lock — so the hook does not need to
// be goroutine-safe.
func WithProgress(fn func(ProgressEvent)) Option { return func(p *Pipeline) { p.progress = fn } }

// WithSynthObserver installs the Lower pass's observation hook (see
// Compiler.Observe): fn receives every cache hit, performed synthesis,
// race loser and failed racer, with the producing backend, epsilon, and
// wall time. Unlike tracing (which samples), the hook sees every
// synthesis; it is called from worker goroutines and must be safe for
// concurrent use.
func WithSynthObserver(fn func(SynthObservation)) Option {
	return func(p *Pipeline) { p.observe = fn }
}

// WithPasses replaces the default pass sequence. Compose built-ins
// (Transpile, OptimizeRotations, FuseRotations, SnapTrivial, Lower,
// OptimizeCliffordT, EstimateResources) with custom NewPass stages in
// any order; an empty call leaves the defaults. An explicit pass list
// wins over WithOptimize/WithOptimizers — compose the optimizer passes
// yourself when hand-building.
func WithPasses(passes ...Pass) Option {
	return func(p *Pipeline) {
		if len(passes) > 0 {
			p.passes = passes
		}
	}
}

// WithOptimize sets the T-count optimizer level for the canned pass
// sequence:
//
//	0  off (the default sequence, unchanged)
//	1  pre-lowering only: OptimizeRotations folds RZ parities in the IR
//	   so fewer rotations reach the synthesizer
//	2  level 1 plus post-lowering OptimizeCliffordT: a fixed-point
//	   foldphases+peephole run reclaims T gates from the lowered circuit
//
// Levels above 2 behave like 2. Ignored when WithPasses overrides the
// sequence.
func WithOptimize(level int) Option { return func(p *Pipeline) { p.optLevel = level } }

// WithOptimizers selects the post-lowering rule chain by optimize
// registry name (in application order) and implies WithOptimize(2).
// Unknown names surface when the optct pass first runs.
func WithOptimizers(names ...string) Option {
	return func(p *Pipeline) {
		if len(names) > 0 {
			p.optNames = names
			if p.optLevel < 2 {
				p.optLevel = 2
			}
		}
	}
}

// WithFuseBlocks prepends the two-qubit block-fusion pass (FuseBlocks)
// to the canned pass sequence: runs of gates confined to a qubit pair
// are multiplied together and re-synthesized via the KAK decomposition
// into ≤3 CX plus U3 rotations before the transpiler ever sees them.
// Ignored when WithPasses overrides the sequence — compose FuseBlocks()
// yourself when hand-building.
func WithFuseBlocks() Option { return func(p *Pipeline) { p.fuse2q = true } }

// OptimizedPasses is the canned pass sequence at the given optimizer
// level (the list WithOptimize installs): level <= 0 is DefaultPasses;
// level 1 inserts OptimizeRotations after Transpile; level >= 2 also
// inserts OptimizeCliffordT(names...) after Lower.
func OptimizedPasses(level int, names ...string) []Pass {
	if level <= 0 {
		return DefaultPasses()
	}
	passes := []Pass{Transpile(), OptimizeRotations(), FuseRotations(), SnapTrivial(), Lower()}
	if level >= 2 {
		passes = append(passes, OptimizeCliffordT(names...))
	}
	return append(passes, EstimateResources())
}

// NewPipeline builds a pipeline over backend b with the default pass
// sequence, then applies opts. Without WithCache it installs one fresh
// bounded cache owned by the pipeline — shared across its Run calls, like
// NewCompiler's — so repeated angles across circuits stay hits.
func NewPipeline(b Backend, opts ...Option) *Pipeline {
	p := &Pipeline{backend: b}
	for _, opt := range opts {
		opt(p)
	}
	if p.passes == nil {
		p.passes = OptimizedPasses(p.optLevel, p.optNames...)
		if p.fuse2q {
			p.passes = append([]Pass{FuseBlocks()}, p.passes...)
		}
	}
	if p.cache == nil {
		p.cache = NewCache(0)
	}
	return p
}

// NewPipelineFor resolves name through the backend registry.
func NewPipelineFor(name string, opts ...Option) (*Pipeline, error) {
	b, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("synth: unknown backend %q (have %v)", name, List())
	}
	return NewPipeline(b, opts...), nil
}

// Passes returns the configured pass names in execution order.
func (p *Pipeline) Passes() []string {
	names := make([]string, len(p.passes))
	for i, pass := range p.passes {
		names[i] = pass.Name()
	}
	return names
}

// PipelineResult is one pipeline run: the lowered circuit plus everything
// the passes recorded.
type PipelineResult struct {
	// Circuit is the final circuit (Clifford+T after a Lower pass).
	Circuit *circuit.Circuit
	// Stats aggregates across passes (setting, rotation counts, realized
	// error bound, cache accounting, resource estimate, pass timings).
	Stats PipelineStats
	// Backend names the pipeline's backend; Wall is the end-to-end time.
	Backend string
	Wall    time.Duration
}

// Run executes the pass sequence on c. The input circuit is never
// mutated. On error the failing pass's name wraps the cause.
//
// When ctx carries a trace span (trace.NewContext), every pass runs under
// a child span named "pass:<name>", and the Lower pass's synthesis work
// nests under its pass span — the pipeline segment of an end-to-end
// request trace. An untraced ctx costs one nil check per pass.
func (p *Pipeline) Run(ctx context.Context, c *circuit.Circuit) (*PipelineResult, error) {
	if p.backend == nil {
		return nil, fmt.Errorf("synth: Pipeline has no Backend")
	}
	start := time.Now()
	cache := p.cache
	if cache == nil {
		// Only reachable for a hand-built zero-value Pipeline; constructor
		// pipelines own a persistent cache.
		cache = NewCache(0)
	}
	pc := &PassContext{
		Ctx:            ctx,
		Backend:        p.backend,
		Req:            p.req,
		Workers:        p.workers,
		Cache:          cache,
		IR:             p.ir,
		CircuitEpsilon: p.circuitEps,
		Budget:         p.budget,
		Progress:       p.progress,
		Observe:        p.observe,
		Stats:          &PipelineStats{Epsilon: p.circuitEps, Strategy: p.budget},
	}
	runSpan := trace.FromContext(ctx)
	cur := c
	for _, pass := range p.passes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		pc.event(pass.Name(), 0, 0)
		pc.Span = runSpan.Child("pass:" + pass.Name())
		next, err := pass.Run(pc, cur)
		pc.Span.End()
		if err != nil {
			return nil, fmt.Errorf("synth: pass %s: %w", pass.Name(), err)
		}
		if next == nil {
			return nil, fmt.Errorf("synth: pass %s returned a nil circuit", pass.Name())
		}
		cur = next
		pc.Stats.Passes = append(pc.Stats.Passes, PassTiming{Name: pass.Name(), Wall: time.Since(t0)})
	}
	return &PipelineResult{
		Circuit: cur,
		Stats:   *pc.Stats,
		Backend: p.backend.Name(),
		Wall:    time.Since(start),
	}, nil
}
