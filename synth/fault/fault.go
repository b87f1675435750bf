// Package fault is the deterministic fault-injection harness and the
// panic-containment primitives the serving stack's goroutine boundaries
// share. It has two halves:
//
// An Injector holds seedable rules keyed by site — "backend:gridsynth",
// "racer:trasyn", "peer:b", "handler:/v1/synthesize" — each firing one
// action (error, panic, latency, timeout) under count/probability
// triggers. Rules come from a compact spec string (the synthd
// -fault-spec flag) or are built in Go by tests:
//
//	backend:gridsynth panic every=3; peer:b latency=400ms; handler:/v1/compile error prob=0.1 seed=7
//
// Injection points call At(ctx, site); with no injector in the context
// (the production default) that is a nil check and nothing more.
//
// Recover is the other half: deferred at a goroutine boundary it turns a
// panic — injected or genuine — into a *PanicError carrying the site and
// the trimmed stack, and reports it to the context's panic observer
// (WithPanicObserver), where the serving layer counts and logs it. The
// package deliberately sits below synth: synth's worker pools, the
// cluster's peer calls, and serve's handlers all import it, so a panic's
// blast radius is one op, one peer hop, or one request — never the
// process.
package fault

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Action is what a matched rule does.
type Action int

const (
	// ActError makes the injection point return an *InjectedError — the
	// shape of a backend or peer failing cleanly.
	ActError Action = iota
	// ActPanic panics at the injection point — contained (or not) by
	// whatever Recover boundary is above it.
	ActPanic
	// ActLatency sleeps the rule's duration (bounded by the context)
	// before letting the call proceed — the shape of a slow dependency.
	ActLatency
	// ActTimeout blocks until the context ends and returns its error —
	// the shape of a dependency that never answers within the deadline.
	ActTimeout
)

func (a Action) String() string {
	switch a {
	case ActError:
		return "error"
	case ActPanic:
		return "panic"
	case ActLatency:
		return "latency"
	case ActTimeout:
		return "timeout"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// Rule is one injection rule. Triggers AND together; the zero trigger
// set fires on every matching call. Rules are stateful (hit and fire
// counters, the prob RNG) and safe for concurrent use.
type Rule struct {
	// Site is the site pattern: an exact site string, or a prefix ending
	// in "*" ("peer:*" matches every peer site).
	Site string
	// Action is what firing does; Msg customizes the error/panic text.
	Action Action
	Msg    string
	// Latency is ActLatency's sleep.
	Latency time.Duration
	// Every fires on every k-th matching call (after After); 0 or 1 =
	// every call.
	Every int64
	// Count stops the rule after it has fired this many times (0 = no
	// limit).
	Count int64
	// After skips the first n matching calls (0 = none).
	After int64
	// Prob fires with this probability, drawn from a deterministic RNG
	// seeded by Seed (0 = fire deterministically per Every/Count/After).
	Prob float64
	// Seed seeds the Prob RNG (0 = derived from the site pattern, so a
	// spec without an explicit seed is still reproducible).
	Seed int64

	hits  atomic.Int64
	fired atomic.Int64

	rngOnce sync.Once
	rngMu   sync.Mutex
	rng     *rand.Rand
}

// matches reports whether the rule applies to site.
func (r *Rule) matches(site string) bool {
	if p, ok := strings.CutSuffix(r.Site, "*"); ok {
		return strings.HasPrefix(site, p)
	}
	return r.Site == site
}

// fire consumes one matching call and reports whether the rule triggers.
func (r *Rule) fire() bool {
	n := r.hits.Add(1)
	if n <= r.After {
		return false
	}
	if r.Every > 1 && (n-r.After)%r.Every != 0 {
		return false
	}
	if r.Prob > 0 && !r.draw() {
		return false
	}
	if r.Count > 0 {
		// CAS so the fired counter never exceeds Count under concurrency.
		for {
			f := r.fired.Load()
			if f >= r.Count {
				return false
			}
			if r.fired.CompareAndSwap(f, f+1) {
				return true
			}
		}
	}
	r.fired.Add(1)
	return true
}

func (r *Rule) draw() bool {
	r.rngOnce.Do(func() {
		seed := r.Seed
		if seed == 0 {
			seed = int64(fnvString(r.Site) | 1)
		}
		r.rng = rand.New(rand.NewSource(seed))
	})
	r.rngMu.Lock()
	defer r.rngMu.Unlock()
	return r.rng.Float64() < r.Prob
}

// Fired returns how many times the rule has triggered.
func (r *Rule) Fired() int64 { return r.fired.Load() }

// InjectedError is what ActError returns — distinguishable from organic
// failures so tests can assert the fault came from the harness.
type InjectedError struct {
	Site string
	Msg  string
}

func (e *InjectedError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("fault: injected error at %s: %s", e.Site, e.Msg)
	}
	return fmt.Sprintf("fault: injected error at %s", e.Site)
}

// Injector evaluates a rule list at injection points. A nil *Injector is
// valid and inert, so call sites never need a guard.
type Injector struct {
	rules []*Rule
}

// Rules exposes the rule list (for spec echo and tests).
func (in *Injector) Rules() []*Rule {
	if in == nil {
		return nil
	}
	return in.rules
}

// At evaluates the rules against site. The first rule that matches and
// triggers acts: ActError returns an *InjectedError, ActPanic panics,
// ActLatency sleeps (bounded by ctx) and returns nil so the real call
// proceeds delayed, ActTimeout blocks until ctx ends and returns its
// error. No match — or a nil injector — returns nil immediately.
func (in *Injector) At(ctx context.Context, site string) error {
	if in == nil {
		return nil
	}
	for _, r := range in.rules {
		if !r.matches(site) || !r.fire() {
			continue
		}
		switch r.Action {
		case ActError:
			return &InjectedError{Site: site, Msg: r.Msg}
		case ActPanic:
			msg := r.Msg
			if msg == "" {
				msg = "injected panic"
			}
			panic(fmt.Sprintf("fault: %s at %s", msg, site))
		case ActLatency:
			select {
			case <-time.After(r.Latency):
			case <-ctx.Done():
				return ctx.Err()
			}
			return nil
		case ActTimeout:
			<-ctx.Done()
			return ctx.Err()
		}
	}
	return nil
}

// Parse builds an Injector from a spec string: rules separated by ";",
// each "<site> <action> [trigger...]" with whitespace-separated fields.
//
//	site    exact ("peer:b") or trailing-* prefix ("peer:*")
//	action  error[=msg] | panic[=msg] | latency=<duration> | timeout
//	trigger every=<k> | count=<n> | after=<n> | prob=<p> | seed=<s>
//
// An empty spec yields a nil (inert) injector.
func Parse(spec string) (*Injector, error) {
	var rules []*Rule
	for _, raw := range strings.Split(spec, ";") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		r, err := parseRule(raw)
		if err != nil {
			return nil, fmt.Errorf("fault: rule %q: %w", raw, err)
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, nil
	}
	return &Injector{rules: rules}, nil
}

func parseRule(raw string) (*Rule, error) {
	fields := strings.Fields(raw)
	if len(fields) < 2 {
		return nil, fmt.Errorf("want \"<site> <action> [trigger...]\"")
	}
	r := &Rule{Site: fields[0]}
	action, arg, hasArg := strings.Cut(fields[1], "=")
	switch action {
	case "error":
		r.Action = ActError
		r.Msg = arg
	case "panic":
		r.Action = ActPanic
		r.Msg = arg
	case "latency":
		r.Action = ActLatency
		if !hasArg {
			return nil, fmt.Errorf("latency needs a duration (latency=400ms)")
		}
		d, err := time.ParseDuration(arg)
		if err != nil {
			return nil, fmt.Errorf("latency: %v", err)
		}
		r.Latency = d
	case "timeout":
		r.Action = ActTimeout
	default:
		return nil, fmt.Errorf("unknown action %q (have error, panic, latency, timeout)", action)
	}
	for _, f := range fields[2:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("bad trigger %q (want key=value)", f)
		}
		switch key {
		case "every", "count", "after", "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || (key != "seed" && n < 0) {
				return nil, fmt.Errorf("bad %s=%q", key, val)
			}
			switch key {
			case "every":
				r.Every = n
			case "count":
				r.Count = n
			case "after":
				r.After = n
			case "seed":
				r.Seed = n
			}
		case "prob":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("bad prob=%q (want 0..1)", val)
			}
			r.Prob = p
		default:
			return nil, fmt.Errorf("unknown trigger %q (have every, count, after, prob, seed)", key)
		}
	}
	return r, nil
}

// --- context plumbing ---

type injectorKey struct{}

// NewContext installs in as the context's injector; a nil injector
// returns ctx unchanged.
func NewContext(ctx context.Context, in *Injector) context.Context {
	if in == nil {
		return ctx
	}
	return context.WithValue(ctx, injectorKey{}, in)
}

// FromContext returns the context's injector, or nil.
func FromContext(ctx context.Context) *Injector {
	in, _ := ctx.Value(injectorKey{}).(*Injector)
	return in
}

// At evaluates the context's injector at site — the one-liner injection
// points use. Without an injector it is two map-free context lookups.
func At(ctx context.Context, site string) error {
	return FromContext(ctx).At(ctx, site)
}

// --- panic containment ---

// PanicError is a recovered panic as a per-op error: the containment
// site, the panic value, and the trimmed stack of the panicking
// goroutine.
type PanicError struct {
	Site  string
	Value any
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("fault: panic at %s: %v", e.Site, e.Value)
}

// Recover converts an in-flight panic into a *PanicError stored in
// *errp, reporting it to the context's panic observer first. Use it
// deferred, directly, at every goroutine boundary that must survive its
// callees:
//
//	func contained(ctx context.Context, site string, ...) (res Result, err error) {
//		defer fault.Recover(ctx, site, &err)
//		...
//	}
//
// With no panic in flight it does nothing.
func Recover(ctx context.Context, site string, errp *error) {
	v := recover()
	if v == nil {
		return
	}
	pe := &PanicError{Site: site, Value: v, Stack: trimStack(debug.Stack())}
	if fn := panicObserver(ctx); fn != nil {
		fn(pe)
	}
	*errp = pe
}

type observerKey struct{}

// WithPanicObserver installs fn to be called (synchronously, from the
// recovering goroutine) for every panic Recover contains under this
// context — the hook the serving layer uses for the panics metric and
// the structured log line. fn must be safe for concurrent use.
func WithPanicObserver(ctx context.Context, fn func(*PanicError)) context.Context {
	return context.WithValue(ctx, observerKey{}, fn)
}

func panicObserver(ctx context.Context) func(*PanicError) {
	fn, _ := ctx.Value(observerKey{}).(func(*PanicError))
	return fn
}

// trimStack drops the goroutine header and the runtime/fault frames
// (recover plumbing) from a debug.Stack dump and caps what remains —
// enough to locate the panic, small enough for a log line.
func trimStack(stack []byte) string {
	lines := strings.Split(string(stack), "\n")
	// Drop "goroutine N [running]:" then the panic/Recover machinery:
	// pairs of (function, location) lines until the first frame outside
	// runtime and this package.
	i := 1
	for i+1 < len(lines) {
		fn := lines[i]
		if !strings.HasPrefix(fn, "runtime/debug.Stack") &&
			!strings.HasPrefix(fn, "runtime.gopanic") &&
			!strings.HasPrefix(fn, "runtime.panic") &&
			!strings.HasPrefix(fn, "panic(") &&
			!strings.Contains(fn, "/synth/fault.Recover") &&
			!strings.Contains(fn, "/synth/fault.At") &&
			!strings.Contains(fn, "/synth/fault.(*Injector).At") {
			break
		}
		i += 2
	}
	const maxLines = 16
	trimmed := lines[i:]
	if len(trimmed) > maxLines {
		trimmed = append(trimmed[:maxLines:maxLines], "...")
	}
	return strings.TrimRight(strings.Join(trimmed, "\n"), "\n")
}

// fnvString is FNV-1a over s (the default per-rule seed derivation).
func fnvString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
