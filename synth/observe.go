package synth

import (
	"context"

	"repro/synth/trace"
)

// observerKey carries the per-op observer from synthOne down into the
// backend, so a racing backend can report its losers and failed racers
// without the Backend interface growing an observer parameter.
type observerKey struct{}

// withObserver installs fn as the context's observer. synthOne installs
// one per op that stamps the op's angle class and forwards to
// Compiler.Observe; every report of that op's synthesis — the winner, a
// contained panic, each race loser and failed racer — goes through it.
func withObserver(ctx context.Context, fn func(SynthObservation)) context.Context {
	return context.WithValue(ctx, observerKey{}, fn)
}

// report hands o to the context's observer, if one is installed.
func report(ctx context.Context, o SynthObservation) {
	if fn, _ := ctx.Value(observerKey{}).(func(SynthObservation)); fn != nil {
		fn(o)
	}
}

// endSpan writes a synthesis outcome onto its span and ends it: the error
// on failure, otherwise the T count and realized error. A span whose
// result is the one used (o.Won) also names the backend that produced it
// — auto's winner on the synth span; a race span's name already says it.
func endSpan(sp *trace.Span, o SynthObservation, err error) {
	if sp == nil {
		return
	}
	if err != nil {
		sp.SetAttr("error", err.Error())
	} else {
		if o.Won {
			sp.SetAttr("backend", o.Backend)
		}
		sp.SetAttr("t_count", o.TCount)
		sp.SetAttr("err_dist", o.ErrDist)
	}
	sp.End()
}
