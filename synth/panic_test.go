// Panic-containment tests for the compiler's goroutine boundaries: a
// backend panic costs one op in a batch, one racer in a race, and one
// request in a circuit compile — never the process.
package synth

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/circuit"
	"repro/internal/qmat"
	"repro/synth/fault"
)

// panicBackend panics on demand; otherwise it delegates to gridsynth.
type panicBackend struct {
	name  string
	inner Backend
	// panicOn, when non-nil, reports whether this call should panic.
	panicOn func() bool
}

func (b *panicBackend) Name() string { return b.name }

func (b *panicBackend) Synthesize(ctx context.Context, target qmat.M2, req Request) (Result, error) {
	if b.panicOn != nil && b.panicOn() {
		panic(fmt.Sprintf("%s: synthetic pathological input", b.name))
	}
	return b.inner.Synthesize(ctx, target, req)
}

func gridsynthBE(t *testing.T) Backend {
	t.Helper()
	be, ok := Lookup("gridsynth")
	if !ok {
		t.Fatal("gridsynth not registered")
	}
	return be
}

// everyNth returns a closure that fires on every n-th call (mutex-
// guarded, so it is deterministic in total count under the worker pool).
func everyNth(n int) func() bool {
	var mu sync.Mutex
	calls := 0
	return func() bool {
		mu.Lock()
		defer mu.Unlock()
		calls++
		return calls%n == 0
	}
}

func TestCompileBatchContainsBackendPanic(t *testing.T) {
	be := &panicBackend{name: "gridsynth", inner: gridsynthBE(t), panicOn: everyNth(3)}
	var (
		mu     sync.Mutex
		failed int
		won    int
	)
	comp := &Compiler{
		Backend: be,
		Req:     Request{Epsilon: 1e-2},
		Observe: func(o SynthObservation) {
			mu.Lock()
			defer mu.Unlock()
			if o.Failed {
				failed++
			}
			if o.Won {
				won++
			}
		},
	}
	var panics []*fault.PanicError
	ctx := fault.WithPanicObserver(context.Background(), func(pe *fault.PanicError) {
		mu.Lock()
		panics = append(panics, pe)
		mu.Unlock()
	})

	targets := make([]qmat.M2, 9)
	for i := range targets {
		targets[i] = qmat.Rz(0.31 + 0.01*float64(i))
	}
	results, err := comp.CompileBatch(ctx, targets)
	if err != nil {
		t.Fatalf("CompileBatch failed outright: %v (panics must be per-op)", err)
	}
	var ok, bad int
	for i, res := range results {
		if res.Err != nil {
			bad++
			var pe *fault.PanicError
			if !errors.As(res.Err, &pe) {
				t.Fatalf("op %d: Err = %v, want PanicError", i, res.Err)
			}
			if pe.Site != "backend:gridsynth" {
				t.Fatalf("op %d: site %q", i, pe.Site)
			}
			if res.Seq != nil {
				t.Fatalf("op %d: failed op carries a sequence", i)
			}
			continue
		}
		ok++
		if res.Seq == nil {
			t.Fatalf("op %d: no error but no sequence", i)
		}
	}
	// 9 distinct ops, every 3rd backend call panics → 3 contained panics.
	if bad != 3 || ok != 6 {
		t.Fatalf("got %d failed / %d ok, want 3/6", bad, ok)
	}
	mu.Lock()
	defer mu.Unlock()
	if failed != 3 || won != 6 {
		t.Fatalf("observations: failed=%d won=%d, want 3/6", failed, won)
	}
	if len(panics) != 3 {
		t.Fatalf("panic observer saw %d panics, want 3", len(panics))
	}
	for _, pe := range panics {
		if !strings.Contains(pe.Stack, "panic_test.go") {
			t.Fatalf("stack does not reach the panicking backend:\n%s", pe.Stack)
		}
	}
}

func TestBatchRepeatsShareFailure(t *testing.T) {
	// Panic on the very first backend call only; the batch repeats that
	// op three times. Workers=1 keeps which op panics deterministic.
	first := true
	var mu sync.Mutex
	be := &panicBackend{name: "gridsynth", inner: gridsynthBE(t), panicOn: func() bool {
		mu.Lock()
		defer mu.Unlock()
		p := first
		first = false
		return p
	}}
	comp := &Compiler{Backend: be, Req: Request{Epsilon: 1e-2}, Workers: 1}
	targets := []qmat.M2{qmat.Rz(0.5), qmat.Rz(0.5), qmat.Rz(0.5), qmat.Rz(0.9)}
	results, err := comp.CompileBatch(context.Background(), targets)
	if err != nil {
		t.Fatalf("CompileBatch: %v", err)
	}
	for i := 0; i < 3; i++ {
		if results[i].Err == nil {
			t.Fatalf("repeat %d of the panicked op has no Err", i)
		}
	}
	if results[3].Err != nil || results[3].Seq == nil {
		t.Fatalf("unrelated op affected: %+v", results[3])
	}
	// The failed op was never cached: a fresh batch retries it and (the
	// backend now behaving) succeeds.
	results, err = comp.CompileBatch(context.Background(), []qmat.M2{qmat.Rz(0.5)})
	if err != nil || results[0].Err != nil || results[0].Seq == nil {
		t.Fatalf("retry after contained panic: err=%v res=%+v", err, results[0])
	}
}

func TestInjectedBackendPanic(t *testing.T) {
	in, err := fault.Parse("backend:gridsynth panic every=2")
	if err != nil {
		t.Fatal(err)
	}
	comp := &Compiler{Backend: gridsynthBE(t), Req: Request{Epsilon: 1e-2}, Workers: 1}
	ctx := fault.NewContext(context.Background(), in)
	targets := []qmat.M2{qmat.Rz(0.11), qmat.Rz(0.22), qmat.Rz(0.33), qmat.Rz(0.44)}
	results, err := comp.CompileBatch(ctx, targets)
	if err != nil {
		t.Fatalf("CompileBatch: %v", err)
	}
	var bad int
	for _, res := range results {
		if res.Err != nil {
			bad++
		}
	}
	if bad != 2 {
		t.Fatalf("every=2 over 4 ops failed %d, want 2", bad)
	}
}

func TestRacerPanicLosesRace(t *testing.T) {
	boom := &panicBackend{name: "trasyn-boom", panicOn: func() bool { return true }}
	auto := autoBackend{racers: []Backend{boom, gridsynthBE(t)}}
	var (
		mu       sync.Mutex
		failures []SynthObservation
	)
	ctx := withObserver(context.Background(), func(o SynthObservation) {
		mu.Lock()
		defer mu.Unlock()
		if o.Failed {
			failures = append(failures, o)
		}
	})
	res, err := auto.Synthesize(ctx, qmat.Rz(0.3), Request{Epsilon: 1e-2})
	if err != nil {
		t.Fatalf("race died with a panicking racer: %v", err)
	}
	if res.Backend != "gridsynth" {
		t.Fatalf("winner = %q, want gridsynth", res.Backend)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(failures) != 1 || failures[0].Backend != "trasyn-boom" {
		t.Fatalf("race observer failures = %+v, want one for trasyn-boom", failures)
	}
}

// TestRacerFaultSite: each of auto's racers is contained at
// racer:<name>, the site a fault spec names and the site label that
// synthd_panics_total carries; the other racer still answers.
func TestRacerFaultSite(t *testing.T) {
	in, err := fault.Parse("racer:gridsynth panic")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		sites []string
	)
	ctx := fault.WithPanicObserver(fault.NewContext(context.Background(), in), func(pe *fault.PanicError) {
		mu.Lock()
		defer mu.Unlock()
		sites = append(sites, pe.Site)
	})
	other := &panicBackend{name: "other", inner: gridsynthBE(t)}
	auto := autoBackend{racers: []Backend{gridsynthBE(t), other}}
	if _, err := auto.Synthesize(ctx, qmat.Rz(0.3), Request{Epsilon: 1e-2}); err != nil {
		t.Fatalf("race died with an injected racer panic: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sites) != 1 || sites[0] != "racer:gridsynth" {
		t.Fatalf("contained panics at %q, want one at racer:gridsynth", sites)
	}
}

func TestAllRacersPanicSurfacesError(t *testing.T) {
	always := func() bool { return true }
	auto := autoBackend{racers: []Backend{
		&panicBackend{name: "p1", panicOn: always},
		&panicBackend{name: "p2", panicOn: always},
	}}
	_, err := auto.Synthesize(context.Background(), qmat.Rz(0.3), Request{Epsilon: 1e-2})
	if err == nil {
		t.Fatal("all racers panicked but the race succeeded")
	}
	if !strings.Contains(err.Error(), "all backends failed") {
		t.Fatalf("err = %v", err)
	}
}

func TestPipelineFailsClosedOnPanickedRotation(t *testing.T) {
	be := &panicBackend{name: "gridsynth", inner: gridsynthBE(t), panicOn: func() bool { return true }}
	pl := NewPipeline(be, WithRequest(Request{Epsilon: 1e-2}), WithWorkers(1))
	circ := circuit.New(1).RZ(0, 0.37)
	_, err := pl.Run(context.Background(), circ)
	if err == nil {
		t.Fatal("compile with a panicked rotation succeeded")
	}
	var pe *fault.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want wrapped PanicError", err)
	}
}
