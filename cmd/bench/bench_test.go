package main

import (
	"context"
	"encoding/json"
	"io"
	"maps"
	"math/rand"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/circuit"
	"repro/circuit/gen"
	"repro/internal/gates"
	"repro/internal/qmat"
	"repro/synth"
	"repro/synth/trace"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {20000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins the quartile method to the one the bounds
// were calibrated with: statistics.quantiles(range(1, 11), n=4) and
// statistics.quantiles([3, 1, 2], n=4).
func TestQuartilesMatchPython(t *testing.T) {
	if got, want := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles(1..10) = %v, want %v", got, want)
	}
	if got, want := quartiles([]float64{3, 1, 2}), [3]float64{1, 2, 3}; got != want {
		t.Errorf("quartiles(3,1,2) = %v, want %v", got, want)
	}
}

func TestCoveredUnion(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	iv := func(a, b int) interval { return interval{at(a), at(b)} }
	for _, c := range []struct {
		name string
		kids []interval
		want time.Duration
	}{
		{"none", nil, 0},
		{"disjoint", []interval{iv(10, 20), iv(30, 40)}, 20 * time.Millisecond},
		// auto's two racers start together; the shorter ends inside the longer.
		{"overlapping racers", []interval{iv(10, 60), iv(10, 20)}, 50 * time.Millisecond},
		{"chained overlap", []interval{iv(10, 30), iv(20, 50), iv(45, 70)}, 60 * time.Millisecond},
		// an asynchronous push outlives its parent: only the inside counts.
		{"outlives parent", []interval{iv(90, 150)}, 10 * time.Millisecond},
		{"before parent", []interval{iv(-20, 5)}, 5 * time.Millisecond},
	} {
		if got := covered(iv(0, 100), c.kids); got != c.want {
			t.Errorf("%s: covered = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSpanSelfTime builds a real span tree shaped like one auto op — a
// synth span over two concurrent racers — and checks self time is the
// duration minus the union of the children, not minus their sum.
func TestSpanSelfTime(t *testing.T) {
	tr := trace.New(trace.Config{SampleRatio: 1})
	root := tr.Start("compile")
	syn := root.Child("synth")
	slow := syn.Child("race:trasyn")
	fast := syn.Child("race:gridsynth")
	time.Sleep(2 * time.Millisecond)
	fast.End()
	time.Sleep(2 * time.Millisecond)
	slow.End()
	syn.End()
	time.Sleep(time.Millisecond)
	root.End()

	tab := newSpanTable()
	tab.addRoot(root, nil)
	if got, want := tab.names["synth"].self, syn.Duration()-slow.Duration(); got != want {
		t.Errorf("synth self = %v, want duration minus the longer racer = %v", got, want)
	}
	if got, want := tab.names["compile"].self, root.Duration()-syn.Duration(); got != want {
		t.Errorf("compile self = %v, want %v", got, want)
	}
	if got := tab.coverage(); got <= 0 || got >= 1 {
		t.Errorf("coverage = %v, want inside (0, 1)", got)
	}
}

// TestStitchFragments grafts remote fragments — the serving node's root
// and a peer's handler span, recorded by other tracers under the same
// trace ID — under the spans they answer, whatever order the tracers
// return them in.
func TestStitchFragments(t *testing.T) {
	client := trace.New(trace.Config{SampleRatio: 1})
	node, peer := trace.New(trace.Config{}), trace.New(trace.Config{})
	root := client.Start("request")
	exchange := root.Child("http.exchange")
	frag := node.StartRemote(root.TraceID(), 1, "/v1/synthesize")
	serve := frag.Child("serve")
	lookup := serve.Child("peer.lookup")
	get := peer.StartRemote(root.TraceID(), 2, "peer.serve.get")
	time.Sleep(time.Millisecond)
	get.End()
	lookup.End()
	serve.End()
	frag.End()
	exchange.End()
	root.End()

	tab := newSpanTable()
	tab.addRoot(root, append(peer.Recent(0), node.Recent(0)...))
	if tab.lost != 0 {
		t.Fatalf("%d fragments unplaced", tab.lost)
	}
	if got, want := tab.names["peer.lookup"].self, lookup.Duration()-get.Duration(); got != want {
		t.Errorf("peer.lookup self = %v, want %v", got, want)
	}
	if got, want := tab.names["http.exchange"].self, exchange.Duration()-frag.Duration(); got != want {
		t.Errorf("http.exchange self = %v, want %v", got, want)
	}
}

// TestOpenLoopDueTime stalls the first request while the rest queue behind
// it: the generator keeps sending on schedule, and each queued request's
// latency, measured from when it was due, carries the stall.
func TestOpenLoopDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var mu sync.Mutex
	ts := openLoop(context.Background(), 5, time.Millisecond, func(ctx context.Context, i int) {
		mu.Lock()
		defer mu.Unlock()
		if i == 0 {
			time.Sleep(stall)
		}
	})
	if len(ts) != 5 {
		t.Fatalf("%d requests sent, want 5", len(ts))
	}
	if !ts[4].sent.Before(ts[0].done) {
		t.Errorf("request 4 was sent only after request 0 finished: the generator waited on a reply")
	}
	for i, st := range ts {
		if i > 0 && !st.due.After(ts[i-1].due) {
			t.Errorf("request %d due %v, not after request %d", i, st.due, i-1)
		}
		if lat := st.done.Sub(st.due); lat < stall-10*time.Millisecond {
			t.Errorf("request %d latency %v from its due time, want at least the %v stall ahead of it", i, lat, stall)
		}
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	ts := openLoop(ctx, 1000, 10*time.Millisecond, func(context.Context, int) {})
	if len(ts) == 0 || len(ts) > 10 {
		t.Fatalf("sent %d requests in 30 ms at 100/s, want a handful", len(ts))
	}
}

// TestCheckSeqRejectsCorrupted: a gridsynth answer passes the checker, and
// the same answer with one T turned into T† or one gate dropped fails it.
func TestCheckSeqRejectsCorrupted(t *testing.T) {
	be, _ := synth.Lookup("gridsynth")
	target := qmat.Rz(0.7)
	res, err := be.Synthesize(context.Background(), target, synth.Request{Epsilon: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := checkSeq(target, res.Seq, 1e-3); !ok {
		t.Fatalf("gridsynth's own answer rejected at distance %g", d)
	}
	i := slices.Index(res.Seq, gates.T)
	if i < 0 {
		t.Fatalf("no T in %v", res.Seq)
	}
	flipped := slices.Clone(res.Seq)
	flipped[i] = gates.Tdg
	if d, ok := checkSeq(target, flipped, 1e-3); ok {
		t.Errorf("sequence with T→T† at %d accepted at distance %g", i, d)
	}
	if d, ok := checkSeq(target, slices.Delete(slices.Clone(res.Seq), i, i+1), 1e-3); ok {
		t.Errorf("sequence with a dropped T accepted at distance %g", d)
	}
}

// TestCheckCircuitRejectsCorrupted: a lowered circuit passes the simulator
// check against its input, and fails it with one T gate flipped.
func TestCheckCircuitRejectsCorrupted(t *testing.T) {
	in := gen.GHZWithRotations(4, 1)
	pl, err := synth.NewPipelineFor("gridsynth", synth.WithCircuitEpsilon(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	rng := func() *rand.Rand { return rand.New(rand.NewSource(7)) }
	if _, err := checkCircuit(in, res.Circuit, res.Stats.ErrorBound, 1e-2, res.Stats.Rotations, rng()); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}
	bad := res.Circuit.Clone()
	i := slices.IndexFunc(bad.Ops, func(op circuit.Op) bool { return op.G == circuit.T })
	if i < 0 {
		t.Fatal("no T gate in the lowered circuit")
	}
	bad.Ops[i].G = circuit.Tdg
	if _, err := checkCircuit(in, bad, res.Stats.ErrorBound, 1e-2, res.Stats.Rotations, rng()); err == nil {
		t.Error("output with a flipped T gate accepted")
	}
	if _, err := checkCircuit(in, in, 0, 1e-2, 0, rng()); err == nil {
		t.Error("output still holding rotations accepted")
	}
}

// TestCheckCircuitExactBoundZero: a circuit with no rotations lowers
// exactly, with error bound 0, and float rounding in the simulator must
// not read as an error beyond it, whatever the input state.
func TestCheckCircuitExactBoundZero(t *testing.T) {
	in := gen.CuccaroAdder(4)
	pl, err := synth.NewPipelineFor("gridsynth", synth.WithCircuitEpsilon(1e-3), synth.WithOptimize(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ErrorBound != 0 {
		t.Fatalf("error bound %g, want 0", res.Stats.ErrorBound)
	}
	for s := range int64(200) {
		if _, err := checkCircuit(in, res.Circuit, 0, 1e-3, 0, rand.New(rand.NewSource(s))); err != nil {
			t.Fatalf("state seed %d: %v", s, err)
		}
	}
}

func TestJudge(t *testing.T) {
	ms := metricSpec{Name: "latency_ms_p50", Better: "lower", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		bv, cv []float64
		want   string
	}{
		{"same", steady, steady, "unchanged"},
		{"20% slower", steady, scale(steady, 1.2), "worse"},
		{"20% faster in every pair", steady, scale(steady, 0.8), "improved"},
		{"faster but too few pairs", steady[:5], scale(steady[:5], 0.8), "unchanged"},
		{"noisy parent", []float64{50, 150, 80, 120, 100}, []float64{100, 100, 100, 100, 100}, "unresolved"},
	} {
		if got := judge(ms, c.bv, c.cv).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}

	// An exact metric: the same value in every run, so a change far inside
	// the bound is still a change in outputs.
	tq := metricSpec{Name: "t_per_rotation", Better: "lower", Bound: 0.2}
	same := func(x float64) []float64 { return []float64{x, x, x} }
	for _, c := range []struct {
		name   string
		bv, cv []float64
		want   string
	}{
		{"same outputs", same(8.8), same(8.8), "unchanged"},
		{"one T gate more in a thousand", same(8.8), same(8.8 * 1.001), "worse"},
		{"T count down 1%", same(8.8), same(8.8 * 0.99), "improved"},
	} {
		if got := judge(tq, c.bv, c.cv).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestSpecContract checks BENCHMARK.json against the rules its consumers
// rely on: exact key sets, name syntax, bounds, and a set-up metric.
func TestSpecContract(t *testing.T) {
	path, err := findSpec()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	if got := slices.Sorted(maps.Keys(raw)); !slices.Equal(got, []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}) {
		t.Errorf("top-level keys %v", got)
	}
	sp, err := loadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	for _, w := range sp.Workloads {
		use(w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, list := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
		for _, m := range list {
			use(m.Name)
			if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("metric %q: unit %q, better %q", m.Name, m.Unit, m.Better)
			}
		}
	}
	setup := false
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower better")
	}
}

// TestSmoke runs every workload at token size, untraced and traced, and
// requires a correct result carrying every metric BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	path, err := findSpec()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 1, seconds: 200 * time.Millisecond, trace: traced, smoke: true}
			res, sha, err := measure(context.Background(), io.Discard, sp, w.Name, cfg)
			if err != nil {
				t.Errorf("%s (traced %t): %v", w.Name, traced, err)
				continue
			}
			if !res.Correct || res.Failed != 0 || len(sha) != 64 {
				t.Errorf("%s (traced %t): correct %t, failed %d/%d, outputs_sha %q",
					w.Name, traced, res.Correct, res.Failed, res.Attempted, sha)
			}
		}
	}
}
