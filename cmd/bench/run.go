package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/gates"
)

// workloads maps each BENCHMARK.json workload name to its implementation.
var workloads = map[string]func(context.Context, *run) error{
	"u3_single":          runU3Single,
	"qaoa_auto":          runQAOAAuto,
	"circuits_gridsynth": runCircuitsGridsynth,
	"serve_mix":          runServeMix,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type runConfig struct {
	seed int64
	// seconds is the measured time. An untraced run measures the whole of
	// it; a traced run splits it between an untraced and a traced phase
	// (plus the serve_mix rate ladder), so the two can be compared.
	seconds time.Duration
	trace   bool
	// smoke shrinks every input to a token size: the run checks wiring,
	// not performance. Only the tests set it.
	smoke bool
}

// run is one workload execution: its configuration, where diagnostics go,
// and what it found.
type run struct {
	runConfig
	out io.Writer

	attempted, failed int
	// problems lists outputs that failed an independent check; any one
	// makes the run incorrect.
	problems   []string
	values     map[string]float64
	outputsSHA string
	// absentLayers are the per-layer metric prefixes of layers the
	// workload never reaches; their metrics read 0.
	absentLayers []string
}

// absent declares the layers, by metric prefix, a workload never reaches.
func (r *run) absent(prefixes ...string) { r.absentLayers = append(r.absentLayers, prefixes...) }

// value returns the named metric: measured, or 0 for a layer the workload
// declared absent.
func (r *run) value(name string) (float64, bool) {
	if v, ok := r.values[name]; ok {
		return v, true
	}
	for _, p := range r.absentLayers {
		if strings.HasPrefix(name, p) {
			return 0, true
		}
	}
	return 0, false
}

func (r *run) note(format string, args ...any) { fmt.Fprintf(r.out, format+"\n", args...) }

// problem records an output that failed its check.
func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// setLatency records latency_ms_p50 over one class of ops: the median of
// their normalized times, less the window's stolen share. It prints the
// raw wall times, and the tail the sample count supports.
func (r *run) setLatency(ts []timing, ws windowStats) {
	xs, raw := msValues(norms(ts)), msValues(walls(ts))
	r.set("latency_ms_p50", ws.unstolen(quantile(xs, 0.5)))
	r.note("latency wall ms: p50 %.4f mean %.4f (n=%d), steal %.2f%% of busy CPU", quantile(raw, 0.5), mean(raw), len(raw), 100*ws.steal)
	r.noteTail("latency", ts)
}

// setLatencyByInput records latency_ms_p50 over several classes of input
// of very different cost — programs of different sizes, cache hits and
// misses — where a median over all ops would only pick the commonest or
// middle class: the geometric mean over classes of each class's median
// normalized time, the way compiler suites summarize, less the window's
// stolen share. A class twice as slow moves it by the same factor
// however rare the class is.
func (r *run) setLatencyByInput(names []string, byInput [][]timing, ws windowStats) {
	logSum, n := 0.0, 0
	for i, ts := range byInput {
		if len(ts) == 0 {
			continue
		}
		med := quantile(msValues(norms(ts)), 0.5)
		r.note("latency %s: median %.4f ms normalized, %.4f wall (n=%d)", names[i], med, quantile(msValues(walls(ts)), 0.5), len(ts))
		r.noteTail("latency "+names[i], ts)
		logSum += math.Log(med)
		n++
	}
	r.set("latency_ms_p50", ws.unstolen(math.Exp(logSum/float64(n))))
	r.note("steal %.2f%% of busy CPU", 100*ws.steal)
}

// noteTail prints the highest tail percentile the sample count supports.
func (r *run) noteTail(what string, ts []timing) {
	xs, raw := msValues(norms(ts)), msValues(walls(ts))
	if p := tailPercentile(len(xs)); p > 50 {
		r.note("%s p%g %.4f ms normalized, %.4f wall (n=%d)", what, p, quantile(xs, p/100), quantile(raw, p/100), len(xs))
	} else {
		r.note("%s n=%d: too few samples for a tail percentile", what, len(xs))
	}
}

// qualitySeed draws every workload's quality corpus: the leading inputs
// every run completes, whose outputs give t_per_rotation and outputs_sha.
// It does not depend on -seed, so those two read the same in every run of
// the same code, whatever its seed: any change in them is a change in the
// program's outputs, not in its inputs. The timed inputs beyond the corpus
// come from -seed. The value is far from the small seeds runs use, so the
// two streams never coincide.
const qualitySeed = 1 << 40

// setQuality records T gates per synthesized rotation over the quality
// corpus.
func (r *run) setQuality(tCount, clifford, rotations int) {
	r.set("t_per_rotation", float64(tCount)/float64(rotations))
	r.note("quality corpus: %d rotations, T %d, Clifford %d", rotations, tCount, clifford)
}

// setSetup records the set-up metric: the sum over set-up steps of each
// step's normalized median over its repetitions.
func (r *run) setSetup(steps ...[]timing) {
	total, raw := 0.0, 0.0
	for _, reps := range steps {
		total += quantile(msValues(norms(reps)), 0.5) / 1e3
		raw += quantile(msValues(walls(reps)), 0.5) / 1e3
	}
	r.set("setup_s", total)
	r.note("setup wall s: %.6f", raw)
}

// repeat times fn n times, each from a freshly collected heap. The
// benchmark reports set-up as a median over repetitions, so neither one
// slow first touch nor a collection that happened to land inside one
// repetition decides it.
func repeat(n int, fn func() error) ([]timing, error) {
	out := make([]timing, n)
	for i := range out {
		runtime.GC()
		var err error
		out[i] = timed(func() { err = fn() })
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// buildTables builds the two enumeration tables the backends use — trasyn's
// (T ≤ 5) and gridsynth's residual table (T ≤ 4) — from scratch. Set-up
// times these; the process-wide gates.Shared copies are then warmed so no
// timed op pays for them.
func buildTables() error {
	gates.BuildTable(5)
	gates.BuildTable(4)
	return nil
}

func warmTables() {
	gates.Shared(5)
	gates.Shared(4)
}

// setupReps is how many times a set-up step of a few milliseconds or less
// repeats; setup_s takes each step's median.
const setupReps = 25

// tableSetup is the set-up every workload shares: the table builds, timed
// over setupReps repetitions, and the per-layer table-build metric.
func (r *run) tableSetup() ([]timing, error) {
	ts, err := repeat(setupReps, buildTables)
	if err != nil {
		return nil, err
	}
	warmTables()
	r.set("gates.table_build_ms", quantile(msValues(norms(ts)), 0.5))
	return ts, nil
}

// window is one measured phase: it takes the GC counters and the CPU
// ticks at both ends, and the heap the program retains at the end.
type window struct {
	start time.Time
	ticks cpuTicks
	gc0   runtime.MemStats
}

func startWindow() *window {
	w := &window{start: time.Now(), ticks: readTicks()}
	runtime.ReadMemStats(&w.gc0)
	return w
}

// windowStats is what a window measured besides the workload's own ops.
type windowStats struct {
	elapsed time.Duration
	// steal is the share of the CPU time the guest wanted in the window
	// that the hypervisor gave to other guests: stolen ticks over all
	// ticks but idle ones.
	steal float64
	// heapLiveMB is the live heap after a full collection at the end of
	// the window: what the program holds on to — tables, caches, anything
	// leaked. With the default GOGC the heap it runs in is about twice
	// this. Sampled during the window instead, it would report which op a
	// collection happened to interrupt.
	heapLiveMB float64
	gcCycles   uint32
	gcPauseMs  float64
}

func (w *window) end() windowStats {
	elapsed := time.Since(w.start)
	t1 := readTicks()
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return windowStats{
		elapsed:    elapsed,
		steal:      ratio(float64(t1.steal-w.ticks.steal), float64((t1.total-t1.idle)-(w.ticks.total-w.ticks.idle))),
		heapLiveMB: float64(s[0].Value.Uint64()) / (1 << 20),
		gcCycles:   gc1.NumGC - w.gc0.NumGC,
		gcPauseMs:  float64(gc1.PauseTotalNs-w.gc0.PauseTotalNs) / 1e6,
	}
}

// unstolen scales a time measured in the window to the time it would
// have taken had the hypervisor not stopped the guest's CPUs. The speed
// probes cannot see those stops: each keeps the fastest of three loops,
// which is how fast the host runs, not how often it halts.
func (ws windowStats) unstolen(x float64) float64 { return x * (1 - ws.steal) }

// setWindow records the memory metric of the measured phase and the GC
// counters of the phase the per-layer metrics describe.
func (r *run) setWindow(ws windowStats) {
	r.set("heap_live_mb", ws.heapLiveMB)
	r.set("gc.cycles", float64(ws.gcCycles))
	r.set("gc.pause_ms_total", ws.gcPauseMs)
}

// phases splits the measured time: an untraced run measures all of it; a
// traced run gives half to an untraced phase and half to the traced one.
func (r *run) phases() (untraced, traced time.Duration) {
	if !r.trace {
		return r.seconds, 0
	}
	return r.seconds / 2, r.seconds / 2
}

// setOverhead records the tracing overhead: the traced op median over the
// untraced one, minus one.
func (r *run) setOverhead(untraced, traced []timing) {
	r.set("trace.overhead_share", quantile(msValues(norms(traced)), 0.5)/quantile(msValues(norms(untraced)), 0.5)-1)
}

// fingerprint accumulates outputs_sha: a sha256 over the workload's
// emitted sequences or lowered QASM, in input order.
type fingerprint struct{ h hash.Hash }

func newFingerprint() *fingerprint { return &fingerprint{h: sha256.New()} }

func (f *fingerprint) add(s string) {
	io.WriteString(f.h, s)
	f.h.Write([]byte{'\n'})
}

func (f *fingerprint) sum() string { return hex.EncodeToString(f.h.Sum(nil)) }

// --- statistics ---

func msValues(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	return xs
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quantile is the q-quantile (0 ≤ q ≤ 1) of xs, interpolating linearly
// between closest ranks; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailLadder is the set of percentiles a tail is reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile is the highest ladder percentile with at least ten of n
// samples beyond it — the highest tail n samples can support. It is 0 when
// not even the median qualifies.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		// The epsilon absorbs float error in n·(100−p)/100 at exact fits
		// such as n = 1000 at p99.
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// quartiles are Python's statistics.quantiles(xs, n=4), the "exclusive"
// method the regression bounds were calibrated with.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var out [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}

// cpuTicks is the aggregate CPU line of /proc/stat: all ticks, the idle
// ones (idle and iowait), and those stolen by the hypervisor.
type cpuTicks struct{ total, idle, steal uint64 }

// readTicks reads /proc/stat; on a system without it every window reports
// no steal.
func readTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, s := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, _ := strconv.ParseUint(s, 10, 64)
		t.total += v
		switch i {
		case 3, 4:
			t.idle += v
		case 7:
			t.steal = v
		}
	}
	return t
}
