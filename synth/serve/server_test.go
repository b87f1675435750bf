package serve_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/circuit/gen"
	"repro/internal/gates"
	"repro/internal/qmat"
	"repro/synth"
	"repro/synth/serve"
	"repro/synth/serve/client"
)

// testQASM is a small circuit with a repeated nontrivial angle, so a warm
// second compile must report cache hits.
const testQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
cx q[0],q[1];
rz(0.7300000000) q[0];
rz(0.7300000000) q[1];
rz(1.3100000000) q[0];
`

// newTestServer starts an httptest server over a serve.Server and returns
// a client for it.
func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *client.Client) {
	t.Helper()
	s := serve.New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, client.New(hs.URL)
}

// TestCompileEndpoint: a round trip lowers to Clifford+T QASM, and the
// identical second request is served from the warm cache.
func TestCompileEndpoint(t *testing.T) {
	_, cl := newTestServer(t, serve.Config{DefaultBackend: "gridsynth"})
	ctx := context.Background()
	req := serve.CompileRequest{QASM: testQASM, Eps: 0.3}

	cold, err := cl.Compile(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cold.QASM, "OPENQASM 2.0") || cold.Stats.TCount == 0 {
		t.Fatalf("implausible lowered circuit: t_count=%d qasm=%q…", cold.Stats.TCount, cold.QASM[:min(80, len(cold.QASM))])
	}
	if cold.Stats.Backend != "gridsynth" || cold.Stats.Misses == 0 {
		t.Fatalf("cold stats: %+v", cold.Stats)
	}

	warm, err := cl.Compile(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Hits == 0 || warm.Stats.Unique != 0 {
		t.Fatalf("second identical compile not served from cache: %+v", warm.Stats)
	}
	if warm.QASM != cold.QASM {
		t.Fatal("warm compile produced a different circuit")
	}
}

// TestCompileValidation: malformed inputs are 400s with a JSON error body,
// not 500s.
func TestCompileValidation(t *testing.T) {
	_, cl := newTestServer(t, serve.Config{})
	ctx := context.Background()
	cases := []struct {
		name string
		req  serve.CompileRequest
	}{
		{"empty qasm", serve.CompileRequest{}},
		{"bad qasm", serve.CompileRequest{QASM: "OPENQASM 2.0;\nnot a gate;"}},
		{"unknown backend", serve.CompileRequest{QASM: testQASM, Backend: "nope"}},
		{"unknown ir", serve.CompileRequest{QASM: testQASM, IR: "zx"}},
		{"unknown budget", serve.CompileRequest{QASM: testQASM, Eps: 0.1, Budget: "exponential"}},
		{"unknown pass", serve.CompileRequest{QASM: testQASM, Passes: []string{"optimize-harder"}}},
		{"negative opt_level", serve.CompileRequest{QASM: testQASM, OptLevel: -1}},
		{"passes with opt_level", serve.CompileRequest{QASM: testQASM, Passes: []string{"transpile", "lower"}, OptLevel: 1}},
		{"passes with optimizers", serve.CompileRequest{QASM: testQASM, Passes: []string{"transpile", "lower"}, Optimizers: []string{"peephole"}}},
		{"passes with fuse_2q", serve.CompileRequest{QASM: testQASM, Passes: []string{"transpile", "lower"}, Fuse2Q: true}},
	}
	for _, tc := range cases {
		_, err := cl.Compile(ctx, tc.req)
		var ae *client.APIError
		if !asAPIError(err, &ae) || ae.Status != http.StatusBadRequest {
			t.Errorf("%s: want 400 APIError, got %v", tc.name, err)
		}
	}
}

// oversizedKnobs are trasyn knob pairs (samples, tbudget) outside the
// accepted ranges: each must be refused before any synthesis.
var oversizedKnobs = [][2]int{{0, serve.MaxTBudget + 1}, {0, 25}, {0, -1}, {serve.MaxSamples + 1, 0}, {1e9, 0}, {-1, 0}}

// checkRefusedKnobs fails unless send, run on every oversizedKnobs pair,
// answered 400 each time, and the server cached nothing and counted no
// panic.
func checkRefusedKnobs(t *testing.T, cl *client.Client, send func(samples, tbudget int) error) {
	t.Helper()
	ctx := context.Background()
	before, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range oversizedKnobs {
		var ae *client.APIError
		if err := send(k[0], k[1]); !asAPIError(err, &ae) || ae.Status != http.StatusBadRequest {
			t.Errorf("samples %d, tbudget %d: want 400 APIError, got %v", k[0], k[1], err)
		}
	}
	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.CacheSize != 0 {
		t.Errorf("refused requests left %d cache entries", h.CacheSize)
	}
	after, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if b, a := grepLines(before, "synthd_panics_total"), grepLines(after, "synthd_panics_total"); a != b {
		t.Errorf("panic counters moved:\n%s\nwas\n%s", a, b)
	}
}

// TestCompileRefusesOversizedTrasynKnobs: /v1/compile refuses tbudget
// outside [0, MaxTBudget] and samples outside [0, MaxSamples] with a 400
// before trasyn runs.
func TestCompileRefusesOversizedTrasynKnobs(t *testing.T) {
	_, cl := newTestServer(t, serve.Config{DefaultBackend: "trasyn"})
	checkRefusedKnobs(t, cl, func(samples, tbudget int) error {
		_, err := cl.Compile(context.Background(), serve.CompileRequest{
			QASM: testQASM, RotEps: 0.1, Samples: samples, TBudget: tbudget})
		return err
	})
}

// TestSynthesizeRefusesOversizedTrasynKnobs: /v1/synthesize refuses the
// same knobs the same way.
func TestSynthesizeRefusesOversizedTrasynKnobs(t *testing.T) {
	_, cl := newTestServer(t, serve.Config{DefaultBackend: "trasyn"})
	checkRefusedKnobs(t, cl, func(samples, tbudget int) error {
		_, err := cl.Synthesize(context.Background(), serve.SynthesizeRequest{
			Eps: 0.1, Samples: samples, TBudget: tbudget,
			Rotations: []serve.Rotation{{Gate: "rz", Params: [3]float64{0.73}}}})
		return err
	})
}

func asAPIError(err error, out **client.APIError) bool {
	ae, ok := err.(*client.APIError)
	if ok {
		*out = ae
	}
	return ok
}

// TestSynthesizeEndpoint: batch results come back in order, repeats are
// cache hits, and sequences actually multiply out to the target rotation.
func TestSynthesizeEndpoint(t *testing.T) {
	_, cl := newTestServer(t, serve.Config{})
	ctx := context.Background()
	resp, err := cl.Synthesize(ctx, serve.SynthesizeRequest{
		Backend: "gridsynth",
		Eps:     1e-2,
		Rotations: []serve.Rotation{
			{Gate: "rz", Params: [3]float64{0.73}},
			{Gate: "rz", Params: [3]float64{0.73}},
			{Gate: "rz", Params: [3]float64{1.31}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("want 3 results, got %d", len(resp.Results))
	}
	if resp.Hits != 1 || resp.Misses != 2 {
		t.Fatalf("accounting: %d hits / %d misses, want 1/2", resp.Hits, resp.Misses)
	}
	for i, res := range resp.Results {
		if res.Seq == "" || res.Backend != "gridsynth" {
			t.Fatalf("result %d: %+v", i, res)
		}
		seq, err := gates.Parse(res.Seq)
		if err != nil {
			t.Fatalf("result %d sequence unparsable: %v", i, err)
		}
		theta := 0.73
		if i == 2 {
			theta = 1.31
		}
		if d := qmat.Distance(seq.Matrix(), qmat.Rz(theta)); d > 1e-2 {
			t.Fatalf("result %d sequence %.3g from target, want <= 1e-2", i, d)
		}
	}

	// Unknown gates and empty batches are 400s.
	for _, bad := range []serve.SynthesizeRequest{
		{},
		{Rotations: []serve.Rotation{{Gate: "cz"}}},
	} {
		_, err := cl.Synthesize(ctx, bad)
		var ae *client.APIError
		if !asAPIError(err, &ae) || ae.Status != http.StatusBadRequest {
			t.Fatalf("want 400 APIError, got %v", err)
		}
	}
}

// TestHealthz reports the registry and cache shape.
func TestHealthz(t *testing.T) {
	_, cl := newTestServer(t, serve.Config{CacheSize: 2048, CacheShards: 8})
	h, err := cl.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.CacheCap != 2048 || h.CacheShards != 8 {
		t.Fatalf("health: %+v", h)
	}
	found := false
	for _, b := range h.Backends {
		if b == "gridsynth" {
			found = true
		}
	}
	if !found {
		t.Fatalf("health backends missing gridsynth: %v", h.Backends)
	}
}

// TestMetricsExposition: after traffic, the scrape carries cache counters,
// request counters and latency histograms in Prometheus text format.
func TestMetricsExposition(t *testing.T) {
	_, cl := newTestServer(t, serve.Config{DefaultBackend: "gridsynth"})
	ctx := context.Background()
	if _, err := cl.Compile(ctx, serve.CompileRequest{QASM: testQASM, Eps: 0.3}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Compile(ctx, serve.CompileRequest{QASM: testQASM, Eps: 0.3}); err != nil {
		t.Fatal(err)
	}
	text, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"synthd_cache_hits_total",
		"synthd_cache_misses_total",
		"synthd_queue_depth",
		`synthd_requests_total{endpoint="/v1/compile",code="200"} 2`,
		`synthd_request_seconds_count{endpoint="/v1/compile"} 2`,
		"synthd_request_seconds_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
	// The warm compile turned repeats into hits: the gauge must be > 0.
	var hits float64
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "synthd_cache_hits_total ") {
			fmt.Sscanf(line, "synthd_cache_hits_total %g", &hits)
		}
	}
	if hits == 0 {
		t.Fatal("cache hits gauge is zero after a warm compile")
	}
}

// slowBackend blocks until its context is done or released; it lets the
// admission tests hold execution slots deterministically.
type slowBackend struct {
	name    string
	started chan struct{}
	release chan struct{}
	calls   atomic.Int64
}

func (b *slowBackend) Name() string { return b.name }

func (b *slowBackend) Synthesize(ctx context.Context, u qmat.M2, req synth.Request) (synth.Result, error) {
	b.calls.Add(1)
	select {
	case b.started <- struct{}{}:
	default:
	}
	select {
	case <-ctx.Done():
		return synth.Result{}, ctx.Err()
	case <-b.release:
	}
	return synth.Result{Seq: gates.Sequence{gates.T}, TCount: 1, Backend: b.name}, nil
}

var slowSeq atomic.Int64

// registerSlow registers a fresh blocking backend under a unique name (the
// registry is process-global and rejects duplicates).
func registerSlow(t *testing.T) *slowBackend {
	t.Helper()
	b := &slowBackend{
		name:    fmt.Sprintf("servetest-slow-%d", slowSeq.Add(1)),
		started: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
	if err := synth.Register(b.name, b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAdmissionControl: with one execution slot and no queue, a request
// arriving while another executes is refused with 503 + Retry-After, and
// the rejection shows up in the metrics.
func TestAdmissionControl(t *testing.T) {
	slow := registerSlow(t)
	s, cl := newTestServer(t, serve.Config{
		DefaultBackend: slow.name,
		MaxInflight:    1,
		MaxQueue:       1,
	})
	_ = s

	ctx := context.Background()
	rot := []serve.Rotation{{Gate: "rz", Params: [3]float64{0.41}}}
	errc := make(chan error, 2)
	// First request occupies the slot; second waits in the queue.
	for i := 0; i < 2; i++ {
		i := i
		go func() {
			_, err := cl.Synthesize(ctx, serve.SynthesizeRequest{
				Rotations: []serve.Rotation{{Gate: "rz", Params: [3]float64{0.41 + float64(i)*0.1}}},
			})
			errc <- err
		}()
	}
	<-slow.started // executing
	// Give the queued request time to enter the bounded queue.
	deadline := time.Now().Add(2 * time.Second)
	for {
		text, err := cl.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(text, "synthd_queue_depth 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queued request never showed in queue_depth:\n%s", text)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Third request: slot busy, queue full → immediate 503.
	_, err := cl.Synthesize(ctx, serve.SynthesizeRequest{Rotations: rot})
	var ae *client.APIError
	if !asAPIError(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("want 503 APIError, got %v", err)
	}

	close(slow.release)
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("admitted request failed: %v", err)
		}
	}
	text, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "synthd_rejected_total 1") {
		t.Fatalf("rejection not counted:\n%s", text)
	}
}

// TestRequestTimeout: the server-side cap propagates as a context deadline
// into the synthesis pool and surfaces as 504.
func TestRequestTimeout(t *testing.T) {
	slow := registerSlow(t)
	_, cl := newTestServer(t, serve.Config{
		DefaultBackend: slow.name,
		RequestTimeout: 50 * time.Millisecond,
	})
	start := time.Now()
	_, err := cl.Synthesize(context.Background(), serve.SynthesizeRequest{
		Rotations: []serve.Rotation{{Gate: "rz", Params: [3]float64{2.21}}},
	})
	var ae *client.APIError
	if !asAPIError(err, &ae) || ae.Status != http.StatusGatewayTimeout {
		t.Fatalf("want 504 APIError, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %s — deadline did not propagate", elapsed)
	}
}

// qaoaQASM returns the QAOA acceptance workload as OpenQASM.
func qaoaQASM() string { return gen.QAOAMaxCut(6, 1, 1).QASM() }

// TestCompileOptLevel: opt_level=2 against the sk baseline strictly
// reclaims T gates (t_count_before > t_count_after), the daemon's
// t-reclaimed counter advances, and opt_level=0 reports no optimizer
// fields. Unknown optimizer names are 400s.
func TestCompileOptLevel(t *testing.T) {
	_, cl := newTestServer(t, serve.Config{DefaultBackend: "gridsynth"})
	ctx := context.Background()

	plain, err := cl.Compile(ctx, serve.CompileRequest{QASM: qaoaQASM(), Eps: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.TCountBefore != 0 || plain.Stats.TCountAfter != 0 || plain.Stats.OptIterations != 0 {
		t.Fatalf("opt fields set without opt_level: %+v", plain.Stats)
	}

	opt, err := cl.Compile(ctx, serve.CompileRequest{
		QASM: qaoaQASM(), Eps: 0.3, Backend: "sk", OptLevel: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := opt.Stats
	if st.TCountBefore <= st.TCountAfter {
		t.Fatalf("want strict T reclamation on the sk baseline, got before=%d after=%d", st.TCountBefore, st.TCountAfter)
	}
	if st.TSaved != st.TCountBefore-st.TCountAfter || st.TCount != st.TCountAfter {
		t.Fatalf("inconsistent opt stats: %+v", st)
	}
	if st.OptIterations < 1 {
		t.Fatalf("no optimizer iterations reported: %+v", st)
	}
	if !strings.Contains(st.Passes, "optct") || !strings.Contains(st.Passes, "optrot") {
		t.Fatalf("optimizer passes missing from pass list %q", st.Passes)
	}

	text, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var reclaimed int64
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "synthd_t_reclaimed_total ") {
			fmt.Sscanf(line, "synthd_t_reclaimed_total %d", &reclaimed)
		}
	}
	if want := int64(st.TSaved); reclaimed != want {
		t.Fatalf("synthd_t_reclaimed_total = %d, want %d", reclaimed, want)
	}

	// Named rule chains work, and unknown names are refused up front.
	named, err := cl.Compile(ctx, serve.CompileRequest{
		QASM: qaoaQASM(), Eps: 0.3, Backend: "sk", Optimizers: []string{"foldphases", "peephole"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if named.Stats.TCountBefore <= named.Stats.TCountAfter {
		t.Fatalf("named optimizer chain reclaimed nothing: %+v", named.Stats)
	}
	_, err = cl.Compile(ctx, serve.CompileRequest{QASM: qaoaQASM(), Optimizers: []string{"nope"}})
	var ae *client.APIError
	if !asAPIError(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("unknown optimizer: want 400 APIError, got %v", err)
	}
}

// TestTenantQuota: with per-tenant quotas on, a tenant that exhausts its
// burst gets 429 + Retry-After and shows up in the throttle metric, while
// other tenants are untouched.
func TestTenantQuota(t *testing.T) {
	s := serve.New(serve.Config{DefaultBackend: "gridsynth", TenantRPS: 0.1, TenantBurst: 1})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	ctx := context.Background()
	req := serve.SynthesizeRequest{Eps: 1e-2, Rotations: []serve.Rotation{{Gate: "rz", Params: [3]float64{0.41}}}}

	alice := client.New(hs.URL, client.WithTenant("alice"))
	if _, err := alice.Synthesize(ctx, req); err != nil {
		t.Fatalf("first request inside the burst: %v", err)
	}
	_, err := alice.Synthesize(ctx, req)
	var ae *client.APIError
	if !asAPIError(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("second request: want 429 APIError, got %v", err)
	}

	// The raw rejection carries Retry-After (the client API hides headers).
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v1/synthesize",
		strings.NewReader(`{"eps":0.01,"rotations":[{"gate":"rz","params":[0.41,0,0]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("X-Tenant", "alice")
	res, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("raw throttled request: status %d, want 429", res.StatusCode)
	}
	ra, err := strconv.Atoi(res.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integer seconds >= 1", res.Header.Get("Retry-After"))
	}

	// An unrelated tenant still has its full burst.
	bob := client.New(hs.URL, client.WithTenant("bob"))
	if _, err := bob.Synthesize(ctx, req); err != nil {
		t.Fatalf("other tenant throttled by alice's quota: %v", err)
	}

	cl := client.New(hs.URL)
	text, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, `synthd_tenant_throttled_total{tenant="alice"} 2`) {
		t.Fatalf("metrics missing alice's throttle count:\n%s", text)
	}
	if strings.Contains(text, `synthd_tenant_throttled_total{tenant="bob"}`) {
		t.Fatal("metrics report throttles for a never-throttled tenant")
	}
}
