package synth

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/circuit"
	"repro/internal/gates"
	"repro/internal/qmat"
	"repro/synth/trace"
)

// namedStub is a deterministic racer: fixed name, fixed T count, or an
// injected failure — so auto's winner and losers are predictable.
type namedStub struct {
	name   string
	tGates int
	fail   bool
}

func (s *namedStub) Name() string { return s.name }

func (s *namedStub) Synthesize(ctx context.Context, u qmat.M2, req Request) (Result, error) {
	if s.fail {
		return Result{}, fmt.Errorf("%s: injected failure", s.name)
	}
	seq := gates.Sequence{gates.H}
	for i := 0; i < s.tGates; i++ {
		seq = append(seq, gates.T)
	}
	return finish(s.name, time.Now(), seq, 1e-4, 1), nil
}

// recorder collects observations from compiler worker goroutines.
type recorder struct {
	mu  sync.Mutex
	obs []SynthObservation
}

func (r *recorder) observe(o SynthObservation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.obs = append(r.obs, o)
}

func (r *recorder) byBackend(backend string) []SynthObservation {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []SynthObservation
	for _, o := range r.obs {
		if o.Backend == backend {
			out = append(out, o)
		}
	}
	return out
}

// TestAutoRaceObservations: one synthesis through a three-way auto race
// must report the winner (Won), the loser with its own timing and T
// count, and the failed racer — all stamped with the op's angle class —
// and cache hits must report too, attributed to the winning backend.
func TestAutoRaceObservations(t *testing.T) {
	rec := &recorder{}
	racers := []Backend{
		&namedStub{name: "winner", tGates: 1},
		&namedStub{name: "loser", tGates: 3},
		&namedStub{name: "failer", fail: true},
	}
	c := circuit.New(2)
	c.RZ(0, 0.7)
	c.RZ(1, 0.7)
	cache := NewCache(0)
	compile := func(observe func(SynthObservation)) {
		t.Helper()
		pl := NewPipeline(autoBackend{racers: racers},
			WithRequest(Request{Epsilon: 1e-2}),
			WithWorkers(1), // sequential: the duplicate op is a materialized hit
			WithCache(cache),
			WithSynthObserver(observe),
			WithPasses(Transpile(), Lower()))
		if _, err := pl.Run(context.Background(), c); err != nil {
			t.Fatal(err)
		}
	}
	compile(rec.observe)

	wins := rec.byBackend("winner")
	if len(wins) != 1 || !wins[0].Won || wins[0].Failed || wins[0].CacheHit {
		t.Fatalf("winner observations: %+v", wins)
	}
	if wins[0].TCount != 1 || wins[0].Class != "generic" || wins[0].Epsilon != 1e-2 {
		t.Errorf("winner observation fields: %+v", wins[0])
	}

	losses := rec.byBackend("loser")
	if len(losses) != 1 || losses[0].Won || losses[0].Failed || losses[0].CacheHit {
		t.Fatalf("loser observations: %+v", losses)
	}
	if losses[0].TCount != 3 || losses[0].Class != "generic" {
		t.Errorf("loser observation fields: %+v", losses[0])
	}

	fails := rec.byBackend("failer")
	if len(fails) != 1 || !fails[0].Failed || fails[0].Won {
		t.Fatalf("failer observations: %+v", fails)
	}
	if fails[0].Class != "generic" {
		t.Errorf("failed racer missing angle class: %+v", fails[0])
	}

	// The duplicate op deduplicated against the in-flight entry at scan
	// time: a cache-hit observation attributed to the compiler's backend
	// with T count still unknown (-1).
	pending := hitObs(rec)
	if len(pending) != 1 {
		t.Fatalf("got %d cache-hit observations, want 1: %+v", len(pending), pending)
	}
	if o := pending[0]; o.Backend != "auto" || o.TCount != -1 || o.Wall != 0 {
		t.Errorf("pending-dedup hit observation: %+v", o)
	}

	if total := len(rec.byBackend("winner")) + len(rec.byBackend("loser")) +
		len(rec.byBackend("failer")) + len(pending); total != 4 {
		t.Fatalf("got %d observations, want 4 (win+loss+failure+hit)", total)
	}

	// A warm recompile hits materialized entries: both ops report as
	// hits attributed to the backend that won the race, with the cached
	// sequence's T count.
	rec2 := &recorder{}
	compile(rec2.observe)
	warm := hitObs(rec2)
	if len(warm) != 2 {
		t.Fatalf("warm recompile: got %d hit observations, want 2: %+v", len(warm), warm)
	}
	for _, o := range warm {
		if o.Backend != "winner" || o.TCount != 1 || o.Won || o.Failed {
			t.Errorf("materialized hit observation: %+v", o)
		}
	}
}

// TestRaceSpansMatchObservations: a traced synthesis through a three-way
// auto race writes the same outcome onto its spans that the observer
// receives — each race:<name> span's T count or error matches that
// racer's observation, and the synth span names the winner's backend.
func TestRaceSpansMatchObservations(t *testing.T) {
	rec := &recorder{}
	comp := NewCompiler(autoBackend{racers: []Backend{
		&namedStub{name: "winner", tGates: 1},
		&namedStub{name: "loser", tGates: 3},
		&namedStub{name: "failer", fail: true},
	}}, Request{Epsilon: 1e-2})
	comp.Observe = rec.observe
	tracer := trace.New(trace.Config{SampleRatio: 1})
	root := tracer.Start("test")
	if _, err := comp.CompileBatch(trace.NewContext(context.Background(), root), []qmat.M2{qmat.Rz(0.7)}); err != nil {
		t.Fatal(err)
	}
	root.End()

	var synthSpans, raceSpans []*trace.Span
	root.Walk(func(sp *trace.Span) {
		switch {
		case sp.Name() == "synth":
			synthSpans = append(synthSpans, sp)
		case strings.HasPrefix(sp.Name(), "race:"):
			raceSpans = append(raceSpans, sp)
		}
	})
	if len(synthSpans) != 1 || len(raceSpans) != 3 {
		t.Fatalf("got %d synth and %d race spans, want 1 and 3", len(synthSpans), len(raceSpans))
	}
	for _, sp := range raceSpans {
		name := strings.TrimPrefix(sp.Name(), "race:")
		obs := rec.byBackend(name)
		if len(obs) != 1 {
			t.Fatalf("%s: got %d observations, want 1: %+v", name, len(obs), obs)
		}
		o := obs[0]
		if o.Failed {
			if sp.Attr("error") == "" || sp.Attr("t_count") != "" {
				t.Errorf("%s: failed racer's span attrs %v", name, sp.Attrs())
			}
			continue
		}
		if got, want := sp.Attr("t_count"), strconv.Itoa(o.TCount); got != want || sp.Attr("error") != "" {
			t.Errorf("%s: span t_count %q (error %q), observation %s", name, got, sp.Attr("error"), want)
		}
	}
	wins := rec.byBackend("winner")
	if len(wins) != 1 || !wins[0].Won {
		t.Fatalf("winner observations: %+v", wins)
	}
	if got := synthSpans[0].Attr("backend"); got != wins[0].Backend {
		t.Errorf("synth span backend %q, winner observation %q", got, wins[0].Backend)
	}
}

// hitObs filters a recorder down to its cache-hit observations.
func hitObs(r *recorder) []SynthObservation {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []SynthObservation
	for _, o := range r.obs {
		if o.CacheHit {
			out = append(out, o)
		}
	}
	return out
}

// TestObserveWithoutRace: a plain (non-auto) backend reports its
// synthesis as a win by walkover.
func TestObserveWithoutRace(t *testing.T) {
	rec := &recorder{}
	comp := NewCompiler(&stubBackend{}, Request{Epsilon: 1e-2})
	comp.Observe = rec.observe
	if _, err := comp.CompileBatch(context.Background(), []qmat.M2{qmat.Rz(0.3)}); err != nil {
		t.Fatal(err)
	}
	obs := rec.byBackend("stub")
	if len(obs) != 1 || !obs[0].Won {
		t.Fatalf("walkover synthesis observations: %+v", obs)
	}
}

// TestObsClass pins the bounded vocabulary: Clifford and Clifford+T
// fixed points, QFT-style dyadic fractions, everything else generic,
// and three-angle keys in their own class.
func TestObsClass(t *testing.T) {
	rz := func(theta float64) Key { return Key{A: quantizeAngle(theta)} }
	for _, tc := range []struct {
		name string
		k    Key
		want string
	}{
		{"pi/2", rz(math.Pi / 2), "pi2"},
		{"pi", rz(math.Pi), "pi2"},
		{"neg-pi/2 wraps", rz(-math.Pi / 2), "pi2"},
		{"3pi/4", rz(3 * math.Pi / 4), "pi4"},
		{"pi/8", rz(math.Pi / 8), "dyadic"},
		{"5pi/32", rz(5 * math.Pi / 32), "dyadic"},
		{"pi/4096", rz(math.Pi / 4096), "dyadic"},
		{"pi/2^13 beyond ladder", rz(math.Pi / 8192), "generic"},
		{"0.7", rz(0.7), "generic"},
		{"u3", Key{A: quantizeAngle(0.5), B: quantizeAngle(0.3), C: quantizeAngle(0.1)}, "u3"},
		// Diagonal U3 keys — θ ≡ 0 mod 2π — are Rz in disguise and class
		// by φ+λ (the shape ZYZ batch keys and the U3 basis produce).
		{"diag generic", Key{B: quantizeAngle(0.3), C: quantizeAngle(0.4)}, "generic"},
		{"diag pi4", Key{B: quantizeAngle(math.Pi / 8), C: quantizeAngle(math.Pi / 8)}, "pi4"},
		{"diag dyadic wrapped", Key{A: quantizeAngle(2 * math.Pi), B: quantizeAngle(math.Pi / 8), C: quantizeAngle(0)}, "dyadic"},
	} {
		if got := tc.k.obsClass(); got != tc.want {
			t.Errorf("%s: obsClass = %q, want %q", tc.name, got, tc.want)
		}
		found := false
		for _, cl := range ObsClasses {
			if cl == tc.want {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: expected class %q not in ObsClasses", tc.name, tc.want)
		}
	}
}
