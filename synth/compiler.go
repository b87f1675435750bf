package synth

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/qmat"
	"repro/synth/fault"
	"repro/synth/trace"
)

// IR selects the intermediate representation circuit compilation lowers
// through.
type IR int

const (
	// IRAuto picks the IR the backend was evaluated on in the paper:
	// CX+H+RZ for gridsynth, CX+U3 for everything else.
	IRAuto IR = iota
	// IRU3 forces the CX+U3 workflow (one synthesis per fused rotation).
	IRU3
	// IRRz forces the CX+H+RZ workflow.
	IRRz
)

// ParseIR resolves a CLI-flag spelling.
func ParseIR(name string) (IR, bool) {
	switch name {
	case "auto", "":
		return IRAuto, true
	case "u3":
		return IRU3, true
	case "rz":
		return IRRz, true
	}
	return IRAuto, false
}

// Compiler is the batch service layer over a Backend: a worker pool with
// context cancellation, deterministic per-op seeding (seeds are derived
// from the base seed and the op's cache key, so results are independent of
// worker scheduling and batch order), and a shared synthesis cache.
type Compiler struct {
	// Backend performs the per-rotation synthesis. Required.
	Backend Backend
	// Req is the base request applied to every op; Req.Seed is the base of
	// the per-op seed derivation.
	Req Request
	// Workers bounds pool size (0 = GOMAXPROCS).
	Workers int
	// Cache is shared across CompileBatch jobs; NewCompiler installs a
	// fresh bounded cache, and compilers and pipelines (WithCache) may
	// share one.
	Cache *Cache
	// Observe, when set, receives every SynthObservation this compiler
	// makes: each cache hit, each synthesis it performs, each race loser
	// and failed racer, and each contained panic — the hook a service
	// feeds its statistics from without depending on trace sampling. It
	// is called from worker goroutines and must be safe for concurrent
	// use.
	Observe func(SynthObservation)

	// mu guards the lazy Cache initialization for zero-value compilers
	// used concurrently.
	mu sync.Mutex
}

// SynthObservation is one synthesis event, as reported to
// Compiler.Observe. Successful syntheses report the producing backend
// with Won=true; racing backends additionally report each loser
// (Won=false) and each failed racer (Failed=true), so win-rate
// statistics see both sides of every race. Cache hits are reported with
// CacheHit=true and zero Wall — the work was amortized, not performed.
type SynthObservation struct {
	// Backend produced (or attempted) the sequence — the individual racer
	// for auto's loser/error reports, never "auto" itself.
	Backend string
	// Epsilon is the threshold the synthesis ran under.
	Epsilon float64
	// Wall is the synthesis wall-clock time (zero for cache hits).
	Wall time.Duration
	// Class is the op's bounded angle class (ObsClass vocabulary).
	Class string
	// TCount is the result's T-gate count; -1 when unknown (a cache hit
	// on an entry still being synthesized by a concurrent job).
	TCount int
	// ErrDist is the realized operator-distance error of the sequence.
	ErrDist float64
	// CacheHit marks a lookup served from cache instead of synthesis.
	CacheHit bool
	// Won is true for the result actually used (every non-racing
	// synthesis, or the race winner); false for a race loser.
	Won bool
	// Failed marks a racer that returned an error; only Backend, Epsilon,
	// Class and Wall are meaningful then.
	Failed bool
}

// NewCompiler returns a Compiler over b with a fresh bounded cache.
func NewCompiler(b Backend, req Request) *Compiler {
	return &Compiler{Backend: b, Req: req, Cache: NewCache(0)}
}

// NewCompilerFor resolves name through the registry.
func NewCompilerFor(name string, req Request) (*Compiler, error) {
	b, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("synth: unknown backend %q (have %v)", name, List())
	}
	return NewCompiler(b, req), nil
}

func (c *Compiler) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c *Compiler) cache() *Cache {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.Cache == nil {
		c.Cache = NewCache(0)
	}
	return c.Cache
}

// opJob is one synthesis lookup: its cache key, the target unitary, and
// the request it runs under. Requests vary per op when a circuit-level
// budget allocates per-rotation epsilons (the key's Eps field tracks
// that, so differently budgeted syntheses never share an entry).
type opJob struct {
	k      Key
	target qmat.M2
	req    Request
}

// derived returns the job's request with its deterministic per-op seed
// (splitmix64 of the base seed and the key hash).
func (j opJob) derived() Request {
	req := j.req
	req.Seed = Seed(mixSeed(req.seed(), keyHash(j.k)))
	return req
}

// scanJobs performs the counted cache lookups for a job list and keeps
// what they found: every job the cache serves gets its Result here. The
// first occurrence of an uncached key is a miss (and scheduled once);
// later occurrences are hits — they will be served by that one synthesis.
// Both wait for the pool, and their indices are returned in job order.
// Lookups run under ctx, so peer-tier consultations are cancellable and
// traced.
func (c *Compiler) scanJobs(ctx context.Context, jobs []opJob, results []Result) (missing []opJob, wait []int, hits, misses int) {
	cache := c.cache()
	pending := map[Key]bool{}
	for i, j := range jobs {
		if pending[j.k] {
			cache.creditHit()
			hits++
			c.observeHit(j, Entry{}, false)
			wait = append(wait, i)
			continue
		}
		if e, ok := cache.GetCtx(ctx, j.k); ok {
			hits++
			c.observeHit(j, e, true)
			results[i] = c.fromEntry(e)
			continue
		}
		misses++
		pending[j.k] = true
		missing = append(missing, j)
		wait = append(wait, i)
	}
	return missing, wait, hits, misses
}

// observeHit reports a cache hit to the Observe hook. On the
// pending-dedup path the entry does not exist yet (a concurrent job is
// still synthesizing it), so TCount is the -1 "unknown" sentinel and
// ErrDist is zero; a materialized entry reports its real metadata.
func (c *Compiler) observeHit(j opJob, e Entry, materialized bool) {
	if c.Observe == nil {
		return
	}
	o := SynthObservation{
		Backend:  c.Backend.Name(),
		Epsilon:  j.req.eps(),
		Class:    j.k.obsClass(),
		TCount:   -1,
		CacheHit: true,
	}
	if materialized {
		if e.Backend != "" {
			o.Backend = e.Backend
		}
		o.TCount = e.Seq.TCount()
		o.ErrDist = e.Err
	}
	c.Observe(o)
}

// synthesizeMissing runs the worker pool over the distinct missing jobs,
// storing entries in the cache and returning the per-key Results. The
// optional progress hook fires after each completed synthesis with
// (done, total). The first error (including context cancellation) drains
// the pool — except contained backend panics, which fail only their own
// op: the key's Result carries Err, nothing is cached for it, and the
// pool keeps running.
func (c *Compiler) synthesizeMissing(ctx context.Context, missing []opJob, progress func(done, total int)) (map[Key]Result, error) {
	computed := make(map[Key]Result, len(missing))
	if len(missing) == 0 {
		return computed, nil
	}
	cache := c.cache()
	jobs := make(chan opJob)
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		done     int
	)
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		cancel()
	}
	for w := 0; w < c.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				res, err := c.synthOne(wctx, j)
				if err != nil {
					var pe *fault.PanicError
					if !errors.As(err, &pe) {
						fail(err)
						return
					}
					// A recovered panic costs one op, not the batch: record
					// the failure under its key (repeats share it) and keep
					// going. Nothing is cached — a later batch retries fresh.
					res = Result{Err: err, Backend: c.Backend.Name()}
				} else {
					cache.PutCtx(wctx, j.k, Entry{Seq: res.Seq, Err: res.Error, Backend: res.Backend})
				}
				mu.Lock()
				computed[j.k] = res
				done++
				n := done
				mu.Unlock()
				if progress != nil {
					progress(n, len(missing))
				}
			}
		}()
	}
feed:
	for _, j := range missing {
		select {
		case jobs <- j:
		case <-wctx.Done():
			fail(wctx.Err())
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return computed, firstErr
}

// synthOne runs one synthesis under a per-op trace span (when ctx carries
// one) and reports it to the Observe hook. The span is named "synth" and
// records the op's angle class, epsilon, the producing backend (the race
// winner for "auto"), and the outcome; the backend call itself sees the
// span in its context, so backend-internal spans (gridsynth's per-k scan,
// auto's racer spans) nest under it. The observer synthOne installs on
// the context receives this op's every report: the result used, a
// contained panic, and a racing backend's losers and failed racers.
func (c *Compiler) synthOne(ctx context.Context, j opJob) (Result, error) {
	req := j.derived()
	sp := trace.FromContext(ctx).Child("synth")
	if sp != nil {
		sp.SetAttr("class", j.k.angleClass())
		sp.SetAttr("eps", req.eps())
		ctx = trace.NewContext(ctx, sp)
	}
	if obs := c.Observe; obs != nil {
		// The hook stamps the op's class, which only the compiler knows.
		class := j.k.obsClass()
		ctx = withObserver(ctx, func(o SynthObservation) {
			o.Class = class
			obs(o)
		})
	}
	res, err := contained(ctx, "backend:"+c.Backend.Name(), c.Backend, j.target, req)
	o := SynthObservation{
		Backend: res.Backend,
		Epsilon: req.eps(),
		Wall:    res.Wall,
		TCount:  res.TCount,
		ErrDist: res.Error,
		Won:     true,
	}
	var pe *fault.PanicError
	if errors.As(err, &pe) {
		// A contained panic is a failed synthesis the statistics must see
		// (the same Failed shape a failed racer reports).
		o = SynthObservation{Backend: c.Backend.Name(), Epsilon: req.eps(), Failed: true}
	}
	endSpan(sp, o, err)
	if err == nil || pe != nil {
		report(ctx, o)
	}
	return res, err
}

// contained is one backend call under containment, at a fault site
// named for its boundary: "backend:<name>" for the compiler's worker,
// "racer:<name>" for one of auto's racers. The fault injector's site
// fires first (the chaos harness's hook), and a panic anywhere below —
// backend code, injected or genuine — is recovered into a
// *fault.PanicError instead of killing the goroutine and with it the
// process.
func contained(ctx context.Context, site string, be Backend, target qmat.M2, req Request) (res Result, err error) {
	defer fault.Recover(ctx, site, &err)
	if ferr := fault.At(ctx, site); ferr != nil {
		return Result{}, ferr
	}
	return be.Synthesize(ctx, target, req)
}

// ObsClasses is the bounded angle-class vocabulary statistics are keyed
// on: unlike angleClass (one string per distinct quantized angle,
// unbounded), obsClass buckets every op into one of these five, so a
// per-(backend, ε-band, class) statistics table stays bounded no matter
// the traffic.
var ObsClasses = []string{"pi2", "pi4", "dyadic", "generic", "u3"}

// obsClass buckets the key's angle: exact multiples of π/2 ("pi2") or
// π/4 ("pi4") — the Clifford and Clifford+T fixed points — then other
// dyadic fractions k·π/2^j, j ≤ 12 ("dyadic", the angles iterative
// phase estimation and QFT produce), then everything else ("generic").
// Genuinely three-angle (U3) keys are their own class: their synthesis
// splits the budget three ways, so their latency is not comparable to
// single-Rz. A diagonal U3 key — θ a multiple of 2π — is an Rz in
// disguise (U3(0,φ,λ) = e^{iα}·Rz(φ+λ)) and classes by its net angle:
// both the transpiler's U3 basis and matrix-level batch keys (ZYZ
// angles) express pure-Rz traffic this way, and it must not all
// collapse into "u3".
func (k Key) obsClass() string {
	const q = 1e-12 // inverse of quantizeAngle's scale
	// Quantization leaves ~1e-12 absolute noise; 1e-9 on the ratio
	// comfortably covers it without absorbing genuinely nearby angles.
	mult := func(x, unit float64) bool {
		r := x / unit
		return math.Abs(r-math.Round(r)) < 1e-9
	}
	theta := float64(k.A) * q
	if k.B != 0 || k.C != 0 {
		if !mult(theta, 2*math.Pi) {
			return "u3"
		}
		theta = float64(k.B)*q + float64(k.C)*q
	}
	switch {
	case mult(theta, math.Pi/2):
		return "pi2"
	case mult(theta, math.Pi/4):
		return "pi4"
	default:
		for j := 3; j <= 12; j++ {
			if mult(theta, math.Pi/float64(int64(1)<<j)) {
				return "dyadic"
			}
		}
		return "generic"
	}
}

// angleClass renders the key's gate and quantized angles — the budget
// package's angle-class identity — as a human-readable trace attribute.
func (k Key) angleClass() string {
	const q = 1e-12 // inverse of quantizeAngle's scale
	s := k.Gate.String() + "(" + strconv.FormatFloat(float64(k.A)*q, 'g', 6, 64)
	if k.B != 0 || k.C != 0 {
		s += "," + strconv.FormatFloat(float64(k.B)*q, 'g', 6, 64) +
			"," + strconv.FormatFloat(float64(k.C)*q, 'g', 6, 64)
	}
	return s + ")"
}

// BatchStats is the cache accounting of one batch of lookups — a
// CompileBatchStats call, or one Lower pass: Unique distinct syntheses
// performed, and the Hits/Misses charged for the batch's lookups
// (Hits+Misses counts every lookup the batch made, one per op).
type BatchStats struct {
	Unique       int
	Hits, Misses int
}

// CompileBatch synthesizes every target through the backend, serving
// repeats — within the batch or from earlier jobs sharing the cache — with
// a single synthesis each. Results are in input order. On error (including
// context cancellation) the pool drains and the first error is returned;
// the result slice then holds zero values for unfinished items. A backend
// panic is contained at the worker boundary and fails only its own op:
// the batch still returns nil error and that op's Result carries Err (a
// *fault.PanicError) with an empty Seq.
func (c *Compiler) CompileBatch(ctx context.Context, targets []qmat.M2) ([]Result, error) {
	results, _, err := c.CompileBatchStats(ctx, targets)
	return results, err
}

// CompileBatchStats is CompileBatch plus this batch's own cache
// accounting — the per-request numbers a service reports, which a shared
// cache's global counters cannot provide under concurrent requests.
func (c *Compiler) CompileBatchStats(ctx context.Context, targets []qmat.M2) ([]Result, BatchStats, error) {
	if c.Backend == nil {
		return nil, BatchStats{}, fmt.Errorf("synth: Compiler has no Backend")
	}
	scope := c.Backend.Name()
	cfg := c.Req.cacheCfg()
	jobs := make([]opJob, len(targets))
	for i, u := range targets {
		jobs[i] = opJob{k: KeyOfTarget(u, scope, c.Req.Epsilon, cfg), target: u, req: c.Req}
	}
	return c.compileJobs(ctx, jobs, nil)
}

// compileJobs is the synthesis core under both CompileBatchStats and the
// Lower pass: the counted scan (under a "scan" span carrying hits and
// misses), the worker pool over the distinct misses (progress as in
// synthesizeMissing), then one Result per job, in order, assembled only
// from what the scan and the pool returned — the cache is read once per
// lookup. A contained panic fails only its own op's Result; any other
// error drains the pool and is returned with the results assembled so far.
func (c *Compiler) compileJobs(ctx context.Context, jobs []opJob, progress func(done, total int)) ([]Result, BatchStats, error) {
	results := make([]Result, len(jobs))
	scanCtx := ctx
	sp := trace.FromContext(ctx).Child("scan")
	if sp != nil {
		scanCtx = trace.NewContext(ctx, sp)
	}
	missing, wait, hits, misses := c.scanJobs(scanCtx, jobs, results)
	sp.SetAttr("hits", hits)
	sp.SetAttr("misses", misses)
	sp.End()
	stats := BatchStats{Unique: len(missing), Hits: hits, Misses: misses}
	computed, err := c.synthesizeMissing(ctx, missing, progress)
	if err != nil {
		return results, stats, err
	}
	for _, i := range wait {
		k := jobs[i].k
		res := computed[k]
		results[i] = res
		// The freshly synthesized occurrence keeps its full metadata (wall
		// time, evals); repeats read it as amortized, like a cache hit. A
		// failed op's record stays put so its repeats report the same
		// failure.
		if res.Err == nil {
			computed[k] = c.fromEntry(Entry{Seq: res.Seq, Err: res.Error, Backend: res.Backend})
		}
	}
	return results, stats, nil
}

// fromEntry rebuilds a Result from a cache entry (zero wall time: the work
// was amortized by an earlier job).
func (c *Compiler) fromEntry(e Entry) Result {
	name := e.Backend
	if name == "" {
		name = c.Backend.Name()
	}
	return Result{
		Seq:      e.Seq,
		Error:    e.Err,
		TCount:   e.Seq.TCount(),
		Clifford: e.Seq.CliffordCount(),
		Backend:  name,
	}
}

// keyHash is FNV-1a over the key fields; mixSeed is splitmix64. Together
// they derive a deterministic, well-spread per-op seed from the base seed.
func keyHash(k Key) uint64 {
	const prime = 1099511628211
	h := fnv64(uint64(k.Gate), uint64(k.A), uint64(k.B), uint64(k.C), uint64(k.Eps), uint64(k.Cfg))
	for i := 0; i < len(k.Scope); i++ {
		h ^= uint64(k.Scope[i])
		h *= prime
	}
	return h
}

func mixSeed(base int64, salt uint64) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*(salt|1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}
