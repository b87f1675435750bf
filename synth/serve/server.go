package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/circuit"
	"repro/internal/qmat"
	"repro/synth"
	"repro/synth/fault"
	"repro/synth/obs"
	"repro/synth/serve/cluster"
	"repro/synth/trace"
)

// Config shapes a Server. The zero value is usable: auto backend, a fresh
// default-sized sharded cache, GOMAXPROCS-wide admission, and a 64-deep
// queue.
type Config struct {
	// DefaultBackend is used when a request names no backend ("auto").
	DefaultBackend string
	// Workers bounds each compile's synthesis pool (0 = GOMAXPROCS).
	Workers int
	// CacheSize and CacheShards size the resident cache
	// (NewCacheSharded(CacheSize, CacheShards), or NewCache(CacheSize)
	// auto-sharded when CacheShards is 0). A daemon fills it from its
	// snapshot through Server.Cache.
	CacheSize   int
	CacheShards int
	// MaxInflight bounds concurrently executing requests; MaxQueue bounds
	// how many more may wait for a slot. A request beyond both is refused
	// with 503 + Retry-After (0 = GOMAXPROCS and 64 respectively).
	MaxInflight int
	MaxQueue    int
	// RequestTimeout caps every request's context deadline; a request's
	// own timeout_ms can only tighten it (0 = no server-side cap).
	RequestTimeout time.Duration
	// Cluster, when set, makes this server one member of a consistent-hash
	// cache cluster: the node is attached to the resident cache (peer
	// lookup on miss, owner push on fill) and its internal endpoints are
	// mounted under /v1/peer/ — outside admission control and tenant
	// quotas, since peers must stay reachable exactly when the public
	// side is saturated.
	Cluster *cluster.Node
	// TenantRPS, when positive, enables per-tenant token-bucket quotas on
	// the public POST endpoints, keyed on the X-Tenant header (absent
	// header = the anonymous tenant). Each tenant refills at TenantRPS
	// requests/second up to TenantBurst tokens (0 = max(1, ceil(rps)));
	// beyond that requests get 429 + Retry-After. Quotas sit in front of
	// the shared inflight/queue admission control.
	TenantRPS   float64
	TenantBurst int
	// Tracer, when set, samples request traces: each sampled POST request
	// gets a span tree from admission down to individual syntheses,
	// retrievable from GET /debug/trace. Requests arriving with a
	// traceparent header join the originating trace regardless of the
	// local sample ratio. Nil = tracing off (span plumbing then costs nil
	// checks only).
	Tracer *trace.Tracer
	// Logger, when set, receives one structured line per completed public
	// request (request_id, endpoint, status, queue wait, duration, and
	// trace_id when sampled).
	Logger *slog.Logger
	// Fault, when set, is the fault injector every public request carries
	// on its context (synthd -fault-spec). Sites fire down the whole
	// stack — handlers, backend calls, racers, peer lookups. Nil costs a
	// nil check per request.
	Fault *fault.Injector
}

func (c Config) withDefaults() Config {
	if c.DefaultBackend == "" {
		c.DefaultBackend = "auto"
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	return c
}

// Server is the resident synthesis service: one shared sharded cache, one
// admission-controlled worker pool, and the four HTTP endpoints. Create
// with New, mount via Handler, persist the cache with Cache().SaveFile on
// shutdown.
type Server struct {
	cfg     Config
	cache   *synth.Cache
	sem     chan struct{} // held by executing requests
	pending atomic.Int64  // executing + queued
	// tReclaimed totals the T gates the post-lowering optimizer removed
	// across every compile served (the /metrics
	// synthd_t_reclaimed_total counter).
	tReclaimed atomic.Int64
	// blocksFused / blockCXSaved total what the fuse2q pass did across
	// every compile served (the synthd_blocks_fused_total and
	// synthd_block_cx_saved_total counters).
	blocksFused  atomic.Int64
	blockCXSaved atomic.Int64
	metrics      *metrics
	obs          *obs.Stats
	quota        *tenantLimiter // nil when quotas are disabled
	mux          *http.ServeMux
	start        time.Time
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	var cache *synth.Cache
	if cfg.CacheShards > 0 {
		cache = synth.NewCacheSharded(cfg.CacheSize, cfg.CacheShards)
	} else {
		// Auto-sharded: 16 ways at default capacity, 1 for small caches.
		cache = synth.NewCache(cfg.CacheSize)
	}
	s := &Server{
		cfg:     cfg,
		cache:   cache,
		sem:     make(chan struct{}, cfg.MaxInflight),
		metrics: newMetrics(),
		obs:     obs.New(),
		start:   time.Now(),
	}
	if cfg.TenantRPS > 0 {
		s.quota = newTenantLimiter(cfg.TenantRPS, cfg.TenantBurst)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/compile", s.instrument("/v1/compile", s.handleCompile))
	s.mux.HandleFunc("POST /v1/synthesize", s.instrument("/v1/synthesize", s.handleSynthesize))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /debug/trace", s.HandleDebugTrace)
	if cfg.Cluster != nil {
		cfg.Cluster.Attach(cache)
		// The peer stats payload is this node's local view in wire form;
		// the schema is ours on both ends, the cluster just moves bytes.
		cfg.Cluster.SetStatsProvider(func() ([]byte, error) {
			return json.Marshal(s.localStats())
		})
		s.mux.Handle("/v1/peer/", cfg.Cluster.Handler())
	}
	return s
}

// nodeName is the "node" attribute stamped on trace roots and fragments —
// the ring ID in cluster mode, the daemon name otherwise.
func (s *Server) nodeName() string {
	if s.cfg.Cluster != nil {
		return s.cfg.Cluster.SelfID()
	}
	return "synthd"
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the resident cache (for snapshot flush and tests).
func (s *Server) Cache() *synth.Cache { return s.cache }

// Obs exposes the resident statistics table (for sidecar load at startup,
// persistence on shutdown, and tests).
func (s *Server) Obs() *obs.Stats { return s.obs }

// apiError carries an HTTP status with a message for the error body.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// handler is the typed shape of the two POST endpoints: admission and
// metrics live in instrument, the handler just computes a response.
type handler func(w http.ResponseWriter, r *http.Request) (int, error)

// reqInfo is what instrument learned about a request before its handler
// ran, stashed in the request context so handlers can fill the
// wait/service response fields and attach sub-spans to the trace.
type reqInfo struct {
	id       string        // request_id (also the X-Request-Id header)
	wait     time.Duration // admission-queue wait
	admitted time.Time     // when the execution slot was acquired
	span     *trace.Span   // the "serve" span (nil when unsampled)
	traceID  string        // root trace ID ("" when unsampled)
}

type reqInfoKey struct{}

// info returns the reqInfo instrument attached (zero value on contexts
// that never passed through instrument, e.g. direct handler tests).
func info(ctx context.Context) reqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(reqInfo)
	return ri
}

// newRequestID draws a 16-hex-digit request ID.
func newRequestID() string { return trace.FormatID(rand.Uint64() | 1) }

// instrument wraps a handler with request identity, tracing, admission
// control and per-endpoint metrics. The handler's returned status (or
// mapped error status) is what the latency histogram and request counters
// record; the latency histogram sees service time only — queue wait is
// split into synthd_queue_wait_seconds.
func (s *Server) instrument(endpoint string, h handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := newRequestID()
		w.Header().Set("X-Request-Id", reqID)
		// Tenant quota first: a throttled tenant must not even occupy a
		// queue slot, or a flooding tenant would still crowd the queue.
		if s.quota != nil {
			if ok, retry := s.quota.allow(r.Header.Get("X-Tenant"), start); !ok {
				secs := int(retry/time.Second) + 1
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				writeJSON(w, http.StatusTooManyRequests,
					ErrorResponse{Error: fmt.Sprintf("serve: tenant over quota, retry in %ds", secs)})
				s.metrics.record(endpoint, http.StatusTooManyRequests, time.Since(start))
				return
			}
		}
		// Root span: join a propagated trace when the request carries a
		// traceparent header (the origin already sampled), else apply the
		// local sample ratio. Both no-op to nil when Tracer is unset.
		var root *trace.Span
		if tid, sid, ok := trace.ParseHeaderValue(r.Header.Get(trace.Header)); ok {
			root = s.cfg.Tracer.StartRemote(tid, sid, endpoint)
		} else {
			root = s.cfg.Tracer.Start(endpoint)
		}
		root.SetAttr("request_id", reqID)
		root.SetAttr("node", s.nodeName())
		if root != nil {
			w.Header().Set("X-Trace-Id", trace.FormatID(root.TraceID()))
		}
		defer root.End()

		waitSpan := root.Child("queue.wait")
		release, err := s.admit(r.Context())
		wait := time.Since(start)
		waitSpan.End()
		if err != nil {
			// Only a genuine capacity refusal counts as a rejection and
			// advertises Retry-After; a client that vanished while queued
			// takes the ordinary cancellation status.
			status := errStatus(err)
			if status == http.StatusServiceUnavailable {
				s.metrics.reject()
				w.Header().Set("Retry-After", "1")
			}
			root.SetAttr("status", status)
			writeJSON(w, status, ErrorResponse{Error: err.Error()})
			s.metrics.record(endpoint, status, time.Since(start))
			s.logRequest(reqID, endpoint, status, wait, time.Since(start), root)
			return
		}
		defer release()
		s.metrics.observeQueueWait(wait)

		admitted := time.Now()
		serveSpan := root.Child("serve")
		ri := reqInfo{id: reqID, wait: wait, admitted: admitted, span: serveSpan}
		if root != nil {
			ri.traceID = trace.FormatID(root.TraceID())
		}
		ctx := context.WithValue(trace.NewContext(r.Context(), serveSpan), reqInfoKey{}, ri)
		ctx = fault.NewContext(ctx, s.cfg.Fault)
		// Every panic recovered below this point — a backend, a racer, or
		// the handler itself — lands here: one counter bump, one log line
		// with the trimmed stack and the request it happened under.
		ctx = fault.WithPanicObserver(ctx, func(pe *fault.PanicError) {
			s.metrics.panicAt(pe.Site)
			if s.cfg.Logger != nil {
				s.cfg.Logger.Error("recovered panic",
					"site", pe.Site,
					"request_id", reqID,
					"endpoint", endpoint,
					"value", fmt.Sprint(pe.Value),
					"stack", pe.Stack)
			}
		})
		status, err := s.serveContained(endpoint, h, w, r.WithContext(ctx))
		serveSpan.End()
		if err != nil {
			status = errStatus(err)
			writeJSON(w, status, ErrorResponse{Error: err.Error()})
		}
		root.SetAttr("status", status)
		service := time.Since(admitted)
		s.metrics.record(endpoint, status, service)
		s.logRequest(reqID, endpoint, status, wait, service, root)
	}
}

// serveContained is the handler containment boundary: a panic anywhere
// in handler code that no inner boundary caught becomes this request's
// 500 — with its stack logged and counted — instead of killing the
// process (net/http would otherwise also kill just the connection, but
// silently and without the metric). The handler:<endpoint> fault site
// fires here.
func (s *Server) serveContained(endpoint string, h handler, w http.ResponseWriter, r *http.Request) (status int, err error) {
	site := "handler:" + endpoint
	defer fault.Recover(r.Context(), site, &err)
	if ferr := fault.At(r.Context(), site); ferr != nil {
		return 0, ferr
	}
	return h(w, r)
}

// logRequest emits the per-request structured log line when a logger is
// configured.
func (s *Server) logRequest(reqID, endpoint string, status int, wait, service time.Duration, root *trace.Span) {
	if s.cfg.Logger == nil {
		return
	}
	attrs := []any{
		"request_id", reqID,
		"endpoint", endpoint,
		"status", status,
		"queue_wait_ms", float64(wait) / float64(time.Millisecond),
		"service_ms", float64(service) / float64(time.Millisecond),
	}
	if root != nil {
		attrs = append(attrs, "trace_id", trace.FormatID(root.TraceID()))
	}
	s.cfg.Logger.Info("request", attrs...)
}

// errStatus maps a handler error to its HTTP status: explicit apiErrors
// keep theirs, deadline expiry is 504, client cancellation 499 (nginx's
// convention; the client is gone either way), anything else 500.
func errStatus(err error) int {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		return ae.status
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499
	default:
		return http.StatusInternalServerError
	}
}

// admit reserves an execution slot, waiting in the bounded queue when the
// pool is busy. It refuses immediately once executing+queued would exceed
// MaxInflight+MaxQueue, and gives up when the request's context ends
// first. The returned release must be called exactly once.
func (s *Server) admit(ctx context.Context) (func(), error) {
	limit := int64(s.cfg.MaxInflight + s.cfg.MaxQueue)
	if s.pending.Add(1) > limit {
		s.pending.Add(-1)
		return nil, &apiError{
			status: http.StatusServiceUnavailable,
			msg:    fmt.Sprintf("serve: at capacity (%d executing + %d queued)", s.cfg.MaxInflight, s.cfg.MaxQueue),
		}
	}
	select {
	case s.sem <- struct{}{}:
		return func() {
			<-s.sem
			s.pending.Add(-1)
		}, nil
	case <-ctx.Done():
		s.pending.Add(-1)
		return nil, fmt.Errorf("serve: canceled while queued: %w", ctx.Err())
	}
}

// requestContext layers the server cap and the request's own timeout_ms
// onto the connection context — the deadline every synthesis under this
// request sees, all the way down into CompileBatch's worker pool.
func (s *Server) requestContext(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	cancel := context.CancelFunc(func() {})
	if s.cfg.RequestTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
	}
	if timeoutMs > 0 {
		prev := cancel
		var inner context.CancelFunc
		ctx, inner = context.WithTimeout(ctx, time.Duration(timeoutMs)*time.Millisecond)
		cancel = func() { inner(); prev() }
	}
	return ctx, cancel
}

// maxBody bounds request bodies; QASM for even the largest suite circuits
// is well under this.
const maxBody = 32 << 20

// decode parses the JSON body into v.
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	if err := dec.Decode(v); err != nil {
		return badRequest("decoding request: %v", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// backend resolves a request's backend name against the registry.
func (s *Server) backend(name string) (synth.Backend, string, error) {
	if name == "" {
		name = s.cfg.DefaultBackend
	}
	be, ok := synth.Lookup(name)
	if !ok {
		return nil, name, badRequest("unknown backend %q (have %s)", name, strings.Join(synth.List(), ", "))
	}
	return be, name, nil
}

// handleCompile runs one QASM circuit through a pipeline wired to the
// resident cache — the warm state every request shares.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) (int, error) {
	var req CompileRequest
	if err := decode(w, r, &req); err != nil {
		return 0, err
	}
	if strings.TrimSpace(req.QASM) == "" {
		return 0, badRequest("empty qasm")
	}
	if err := checkTrasynKnobs(req.Samples, req.TBudget); err != nil {
		return 0, err
	}
	circ, err := circuit.ParseQASM(req.QASM)
	if err != nil {
		return 0, badRequest("parsing qasm: %v", err)
	}
	_, name, err := s.backend(req.Backend)
	if err != nil {
		return 0, err
	}
	pl, strat, err := req.Pipeline(name,
		synth.WithWorkers(s.cfg.Workers),
		synth.WithCache(s.cache),
		synth.WithSynthObserver(s.obs.Observe))
	if err != nil {
		return 0, badRequest("%v", err)
	}

	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()
	res, err := pl.Run(ctx, circ)
	if err != nil {
		return 0, err
	}
	for _, pt := range res.Stats.Passes {
		s.metrics.observePass(pt.Name, pt.Wall)
	}

	st := NewCompileStats(res, pl.Passes(), req.Eps, strat)
	ri := info(r.Context())
	st.QueueWaitMs = float64(ri.wait) / float64(time.Millisecond)
	if !ri.admitted.IsZero() {
		st.ServiceMs = float64(time.Since(ri.admitted)) / float64(time.Millisecond)
	}
	st.TraceID = ri.traceID
	if st.TSaved > 0 {
		s.tReclaimed.Add(int64(st.TSaved))
	}
	if st.BlocksFused > 0 {
		s.blocksFused.Add(int64(st.BlocksFused))
		s.blockCXSaved.Add(int64(st.BlockCXSaved))
	}
	writeJSON(w, http.StatusOK, CompileResponse{QASM: res.Circuit.QASM(), Stats: st})
	return http.StatusOK, nil
}

// handleSynthesize lowers a batch of rotations through CompileBatch over
// the resident cache.
func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) (int, error) {
	var req SynthesizeRequest
	if err := decode(w, r, &req); err != nil {
		return 0, err
	}
	if len(req.Rotations) == 0 {
		return 0, badRequest("empty rotations")
	}
	if err := checkTrasynKnobs(req.Samples, req.TBudget); err != nil {
		return 0, err
	}
	be, _, err := s.backend(req.Backend)
	if err != nil {
		return 0, err
	}
	targets := make([]qmat.M2, len(req.Rotations))
	for i, rot := range req.Rotations {
		op, err := rot.op()
		if err != nil {
			return 0, err
		}
		targets[i] = op.Matrix1Q()
	}

	comp := &synth.Compiler{
		Backend: be,
		Req:     synth.Request{Epsilon: req.Eps, Samples: req.Samples, TBudget: req.TBudget, Seed: req.Seed},
		Workers: s.cfg.Workers,
		Cache:   s.cache,
		Observe: s.obs.Observe,
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()
	results, stats, err := comp.CompileBatchStats(ctx, targets)
	if err != nil {
		return 0, err
	}

	ri := info(r.Context())
	resp := SynthesizeResponse{
		Results:     make([]SynthesizeResult, len(results)),
		Hits:        int64(stats.Hits),
		Misses:      int64(stats.Misses),
		QueueWaitMs: float64(ri.wait) / float64(time.Millisecond),
		TraceID:     ri.traceID,
	}
	if !ri.admitted.IsZero() {
		resp.ServiceMs = float64(time.Since(ri.admitted)) / float64(time.Millisecond)
	}
	for i, res := range results {
		sr := SynthesizeResult{
			Seq:      res.Seq.String(),
			Error:    res.Error,
			TCount:   res.TCount,
			Clifford: res.Clifford,
			Backend:  res.Backend,
			WallMs:   float64(res.Wall) / float64(time.Millisecond),
		}
		if res.Err != nil {
			// A contained backend panic: this op failed, the batch did
			// not. The client sees which rotations to resubmit. Seq is
			// cleared — the empty sequence would otherwise render as
			// the identity "I", which reads as a (wrong) result.
			sr.Failure = res.Err.Error()
			sr.Seq = ""
			resp.Failed++
		}
		resp.Results[i] = sr
	}
	writeJSON(w, http.StatusOK, resp)
	return http.StatusOK, nil
}

// op converts a wire Rotation to a circuit op on qubit 0 (the qubit index
// is irrelevant to single-qubit synthesis).
func (rot Rotation) op() (circuit.Op, error) {
	var g circuit.GateType
	switch strings.ToLower(rot.Gate) {
	case "rx":
		g = circuit.RX
	case "ry":
		g = circuit.RY
	case "rz":
		g = circuit.RZ
	case "u3":
		g = circuit.U3
	default:
		return circuit.Op{}, badRequest("unknown rotation gate %q (have rx, ry, rz, u3)", rot.Gate)
	}
	return circuit.Op{G: g, Q: [2]int{0, -1}, P: rot.Params}, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.cache.Stats()
	h := Health{
		Status:      "ok",
		Backends:    synth.List(),
		Default:     s.cfg.DefaultBackend,
		CacheSize:   st.Size,
		CacheCap:    st.Cap,
		CacheShards: s.cache.Shards(),
		UptimeMs:    time.Since(s.start).Milliseconds(),
	}
	if n := s.cfg.Cluster; n != nil {
		h.NodeID = n.SelfID()
		h.ClusterSize = n.Ring().Size()
		h.Breakers = n.BreakerStates()
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.cache.Stats()
	inflight := len(s.sem)
	queued := int(s.pending.Load()) - inflight
	if queued < 0 {
		queued = 0
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.write(w, []scrapeMetric{
		{"synthd_cache_hits_total", "Cache hits across all requests since start.", "counter", float64(st.Hits)},
		{"synthd_cache_misses_total", "Cache misses across all requests since start.", "counter", float64(st.Misses)},
		{"synthd_cache_entries", "Live entries in the synthesis cache.", "gauge", float64(st.Size)},
		{"synthd_cache_capacity", "Entry capacity of the synthesis cache.", "gauge", float64(st.Cap)},
		{"synthd_inflight", "Requests currently executing.", "gauge", float64(inflight)},
		{"synthd_queue_depth", "Requests waiting for an execution slot.", "gauge", float64(queued)},
		{"synthd_t_reclaimed_total", "T gates removed by the post-lowering optimizer across all compiles.", "counter", float64(s.tReclaimed.Load())},
		{"synthd_blocks_fused_total", "Two-qubit blocks replaced by KAK re-synthesis across all compiles.", "counter", float64(s.blocksFused.Load())},
		{"synthd_block_cx_saved_total", "Two-qubit gates (CX units) saved by block fusion across all compiles.", "counter", float64(s.blockCXSaved.Load())},
	})
	if n := s.cfg.Cluster; n != nil {
		cs := n.Stats()
		fmt.Fprintf(w, "# HELP synthd_peer_lookups_total Single-hop peer cache lookups by result (error includes timeouts and dead peers).\n")
		fmt.Fprintf(w, "# TYPE synthd_peer_lookups_total counter\n")
		fmt.Fprintf(w, "synthd_peer_lookups_total{result=\"hit\"} %d\n", cs.PeerHits)
		fmt.Fprintf(w, "synthd_peer_lookups_total{result=\"miss\"} %d\n", cs.PeerMisses)
		fmt.Fprintf(w, "synthd_peer_lookups_total{result=\"error\"} %d\n", cs.PeerErrors)
		fmt.Fprintf(w, "# HELP synthd_peer_pushes_total Owner fill pushes attempted after local syntheses.\n")
		fmt.Fprintf(w, "# TYPE synthd_peer_pushes_total counter\n")
		fmt.Fprintf(w, "synthd_peer_pushes_total %d\n", cs.Pushes)
		fmt.Fprintf(w, "# HELP synthd_ring_keys_owned Live local cache entries whose consistent-hash owner is this node.\n")
		fmt.Fprintf(w, "# TYPE synthd_ring_keys_owned gauge\n")
		fmt.Fprintf(w, "synthd_ring_keys_owned %d\n", n.KeysOwned())
		fmt.Fprintf(w, "# HELP synthd_seeded_entries Entries loaded from the ring successor's snapshot at join.\n")
		fmt.Fprintf(w, "# TYPE synthd_seeded_entries gauge\n")
		fmt.Fprintf(w, "synthd_seeded_entries %d\n", cs.Seeded)
		if brs := n.BreakerStates(); len(brs) > 0 {
			fmt.Fprintf(w, "# HELP synthd_peer_breaker_state Per-peer circuit breaker state (0 closed, 1 half-open, 2 open).\n")
			fmt.Fprintf(w, "# TYPE synthd_peer_breaker_state gauge\n")
			for _, br := range brs {
				v := 0
				switch br.State {
				case "half-open":
					v = 1
				case "open":
					v = 2
				}
				fmt.Fprintf(w, "synthd_peer_breaker_state{peer=%q} %d\n", br.Peer, v)
			}
			fmt.Fprintf(w, "# HELP synthd_peer_breaker_trips_total Breaker open transitions across all peers.\n")
			fmt.Fprintf(w, "# TYPE synthd_peer_breaker_trips_total counter\n")
			fmt.Fprintf(w, "synthd_peer_breaker_trips_total %d\n", cs.BreakerTrips)
			fmt.Fprintf(w, "# HELP synthd_peer_breaker_skips_total Outbound peer calls skipped because the peer's breaker was open.\n")
			fmt.Fprintf(w, "# TYPE synthd_peer_breaker_skips_total counter\n")
			fmt.Fprintf(w, "synthd_peer_breaker_skips_total %d\n", cs.BreakerSkips)
		}
	}
	if s.quota != nil {
		counts := s.quota.throttledByTenant()
		fmt.Fprintf(w, "# HELP synthd_tenant_throttled_total Requests refused by per-tenant quota, by tenant.\n")
		fmt.Fprintf(w, "# TYPE synthd_tenant_throttled_total counter\n")
		for _, t := range sortedKeys(counts) {
			fmt.Fprintf(w, "synthd_tenant_throttled_total{tenant=%q} %d\n", t, counts[t])
		}
	}
	s.writeObsMetrics(w)
}

// HandleDebugTrace serves GET /debug/trace: without ?id= it lists the
// ring of recent kept traces (newest first, one line each); with
// ?id=<trace id> it renders every retained span tree of that trace —
// local roots and remote fragments alike — as the compact text format,
// or as Chrome trace_event JSON with &format=chrome (load the saved body
// in chrome://tracing or Perfetto). Exported so a daemon can also mount
// it on a private -debug-addr listener next to net/http/pprof.
func (s *Server) HandleDebugTrace(w http.ResponseWriter, r *http.Request) {
	tr := s.cfg.Tracer
	if tr == nil {
		http.Error(w, "tracing disabled (start with -trace-sample > 0)", http.StatusNotFound)
		return
	}
	idStr := r.URL.Query().Get("id")
	if idStr == "" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		n := 0
		for _, root := range tr.Recent(0) {
			fmt.Fprintf(w, "%s %12s %s", trace.FormatID(root.TraceID()), root.Duration().Round(time.Microsecond), root.Name())
			if id := root.Attr("request_id"); id != "" {
				fmt.Fprintf(w, " request_id=%s", id)
			}
			fmt.Fprintln(w)
			n++
		}
		if n == 0 {
			fmt.Fprintln(w, "no traces retained yet")
		}
		return
	}
	id, ok := trace.ParseID(idStr)
	if !ok {
		http.Error(w, "bad id (want 16 or 32 hex digits)", http.StatusBadRequest)
		return
	}
	roots := tr.Collect(id)
	if len(roots) == 0 {
		http.Error(w, "trace not found (evicted from ring, or never sampled)", http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		trace.WriteChrome(w, roots...)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	trace.WriteText(w, roots...)
}
