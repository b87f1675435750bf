package synth

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/gates"
	"repro/internal/gridsynth"
	"repro/internal/qmat"
	"repro/internal/sk"
	"repro/synth/trace"
)

// ErrNoSequence is returned when a backend produced nothing usable.
var ErrNoSequence = errors.New("synth: backend produced no sequence")

// --- trasyn ---

// trasynBackend wraps core.TRASYN (Algorithm 1): the tensor-network-guided
// search over Clifford+T sequences. Epsilon, when set, turns the run into
// the Eq. (4) early-stopping form; otherwise the full budget ladder runs
// and the best approximation wins.
type trasynBackend struct{}

func (trasynBackend) Name() string { return "trasyn" }

func (trasynBackend) Synthesize(ctx context.Context, target qmat.M2, req Request) (Result, error) {
	ctx, cancel := req.budget(ctx)
	defer cancel()
	req = req.withDefaults()
	cfg := core.DefaultConfig(gates.Shared(req.TBudget), req.TBudget, req.Tensors, req.Samples)
	cfg.Epsilon = req.Epsilon
	cfg.UseBeam = req.Beam
	cfg.Rng = rand.New(rand.NewSource(req.seed()))
	cfg.Cancel = ctx.Done()
	start := time.Now()
	res := core.TRASYN(target, cfg)
	if res.Seq == nil {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		return Result{}, ErrNoSequence
	}
	// A canceled run that nonetheless met its target is a success; a
	// truncated one is not — returning (and caching) partial best-effort
	// results would silently degrade later requests.
	if err := ctx.Err(); err != nil && (req.Epsilon <= 0 || res.Error > req.Epsilon) {
		return Result{}, err
	}
	return finish("trasyn", start, res.Seq, res.Error, res.Evals), nil
}

// --- gridsynth ---

// gridsynthBackend wraps the Ross–Selinger baseline. Diagonal targets take
// the single-Rz path; general unitaries go through the three-rotation U3
// decomposition with the error budget split equally (the paper's Eq. (1)
// baseline).
type gridsynthBackend struct{}

func (gridsynthBackend) Name() string { return "gridsynth" }

func (gridsynthBackend) Synthesize(ctx context.Context, target qmat.M2, req Request) (Result, error) {
	ctx, cancel := req.budget(ctx)
	defer cancel()
	opt := gridsynth.Options{Cancel: ctx.Done(), Trace: trace.FromContext(ctx)}
	start := time.Now()
	var (
		r   gridsynth.Result
		err error
	)
	if theta, ok := rzAngle(target); ok {
		r, err = gridsynth.Rz(theta, req.eps(), opt)
	} else {
		r, err = gridsynth.U3(target, req.eps(), opt)
	}
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return Result{}, cerr
		}
		return Result{}, err
	}
	return finish("gridsynth", start, r.Seq, r.Error, 0), nil
}

// rzAngle reports whether target is diagonal — i.e. an Rz rotation up to
// global phase — and extracts its angle.
func rzAngle(u qmat.M2) (float64, bool) {
	if cmplx.Abs(u[0][1]) > 1e-12 || cmplx.Abs(u[1][0]) > 1e-12 {
		return 0, false
	}
	return cmplx.Phase(u[1][1]) - cmplx.Phase(u[0][0]), true
}

// --- Solovay–Kitaev ---

// skBackend wraps the recursive Solovay–Kitaev baseline. The engine is
// depth-driven, so the backend deepens the recursion until req's epsilon is
// met or maxSKDepth is reached (sequence lengths grow ~5^depth), returning
// the best depth found.
type skBackend struct {
	once sync.Once
	eng  *sk.Engine
}

const maxSKDepth = 4

func (*skBackend) Name() string { return "sk" }

func (b *skBackend) Synthesize(ctx context.Context, target qmat.M2, req Request) (Result, error) {
	ctx, cancel := req.budget(ctx)
	defer cancel()
	b.once.Do(func() { b.eng = sk.NewEngine(gates.Shared(4)) })
	start := time.Now()
	best := Result{Error: math.Inf(1)}
	for depth := 0; depth <= maxSKDepth; depth++ {
		if err := ctx.Err(); err != nil {
			// Only a best-so-far that already meets the target survives
			// cancellation; a truncated recursion is an error.
			if best.Seq != nil && best.Error <= req.eps() {
				return best, nil
			}
			return Result{}, err
		}
		seq, d := b.eng.Synthesize(target, depth)
		if d < best.Error {
			best = finish("sk", start, seq, d, 0)
		}
		if best.Error <= req.eps() {
			break
		}
	}
	if best.Seq == nil {
		return Result{}, ErrNoSequence
	}
	best.Wall = time.Since(start)
	return best, nil
}

// --- annealer ---

// annealBackend wraps the Synthetiq-style simulated annealer. Its restart
// budget is Request.Timeout (default 2s) — a declared knob that is part of
// the cache key, unlike an ambient context deadline. Like the original it
// has no optimality guarantee: the best sequence found within the budget
// is returned even when it misses epsilon — callers judge Result.Error
// against their threshold. A run cut short by context cancellation (as
// opposed to its own budget) only succeeds if it already met epsilon.
type annealBackend struct{}

func (annealBackend) Name() string { return "anneal" }

func (annealBackend) Synthesize(ctx context.Context, target qmat.M2, req Request) (Result, error) {
	opt := anneal.Options{
		Budget: req.Timeout,
		Rng:    rand.New(rand.NewSource(req.seed())),
		Cancel: ctx.Done(),
	}
	start := time.Now()
	res := anneal.Synthesize(target, req.eps(), opt)
	if res.Seq == nil {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		return Result{}, ErrNoSequence
	}
	if err := ctx.Err(); err != nil && res.Error > req.eps() {
		return Result{}, err
	}
	return finish("anneal", start, res.Seq, res.Error, res.Restarts), nil
}

// --- auto ---

// autoBackend races trasyn against gridsynth under the caller's epsilon and
// returns the lower-T-count result among those meeting it (falling back to
// the lower-error result when neither does) — the pluggable-search framing
// of T-count optimization from Kliuchnikov '13 / Davis et al. One racer
// failing is not fatal: the race degrades to whichever racers succeed, and
// only when all fail does the combined error surface.
type autoBackend struct {
	// racers overrides the default trasyn/gridsynth pair (tests inject
	// failing backends here; nil selects the default).
	racers []Backend
}

func (autoBackend) Name() string { return "auto" }

func (a autoBackend) Synthesize(ctx context.Context, target qmat.M2, req Request) (Result, error) {
	ctx, cancel := req.budget(ctx)
	defer cancel()
	racers := a.racers
	if racers == nil {
		racers = []Backend{trasynBackend{}, gridsynthBackend{}}
	}
	// trasyn needs an explicit epsilon to early-stop against the same
	// threshold gridsynth targets.
	sub := req
	sub.Epsilon = req.eps()
	type out struct {
		res Result
		err error
		obs SynthObservation
	}
	span := trace.FromContext(ctx)
	var wg sync.WaitGroup
	outs := make([]out, len(racers))
	for i, be := range racers {
		wg.Add(1)
		go func(i int, be Backend) {
			defer wg.Done()
			rs := span.Child("race:" + be.Name())
			start := time.Now()
			// A panicking racer just loses: it is reported Failed like
			// any failing racer instead of killing the process.
			r, err := contained(trace.NewContext(ctx, rs), "racer:"+be.Name(), be, target, sub)
			o := SynthObservation{Backend: be.Name(), Epsilon: sub.eps(), Wall: time.Since(start), Failed: err != nil}
			if err == nil {
				o.TCount, o.ErrDist = r.TCount, r.Error
			}
			endSpan(rs, o, err)
			outs[i] = out{r, err, o}
		}(i, be)
	}
	wg.Wait()
	best, bestIdx := Result{Error: math.Inf(1)}, -1
	for i, o := range outs {
		if o.err != nil {
			continue
		}
		if bestIdx < 0 || beats(o.res, best, sub.Epsilon) {
			best, bestIdx = o.res, i
		}
	}
	// Report every non-winning racer — losers with their own timing,
	// failures flagged — so win-rate statistics see both sides of every
	// race. The winner itself is reported by the compiler, whose observer
	// also stamps the angle class on these.
	for i, o := range outs {
		if i != bestIdx {
			report(ctx, o.obs)
		}
	}
	if bestIdx < 0 {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		parts := make([]string, len(racers))
		for i, be := range racers {
			parts[i] = fmt.Sprintf("%s: %v", be.Name(), outs[i].err)
		}
		return Result{}, fmt.Errorf("synth: auto: all backends failed (%s)", strings.Join(parts, "; "))
	}
	span.SetAttr("auto_winner", best.Backend)
	return best, nil
}

// beats reports whether b strictly wins over a: meeting eps beats
// missing it, then lower T count, then lower error. Ties keep a.
func beats(b, a Result, eps float64) bool {
	aOK, bOK := a.Error <= eps, b.Error <= eps
	switch {
	case bOK && !aOK:
		return true
	case aOK && !bOK:
		return false
	case aOK && bOK:
		return b.TCount < a.TCount || (b.TCount == a.TCount && b.Error < a.Error)
	default:
		return b.Error < a.Error
	}
}
