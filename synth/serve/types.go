// Package serve is the synthesis service layer: an HTTP/JSON front end
// over one resident synth pipeline/compiler and one shared, sharded,
// snapshot-persistent synthesis cache — the daemon-shaped deployment the
// paper's amortization argument calls for. Every gridsynth/trasyn sequence
// is a pure function of (rotation, ε, config), so a long-lived cache turns
// the per-rotation synthesis cost into a one-time cost across all clients.
//
// Endpoints:
//
//	POST /v1/compile     QASM in → lowered Clifford+T QASM + stats out
//	POST /v1/synthesize  batch of rotations → gate sequences
//	GET  /healthz        liveness + build configuration
//	GET  /metrics        Prometheus text: cache, queue, latency histograms
//	GET  /v1/stats       fleet statistics (per-backend win/latency cells);
//	                     ?cluster=1 federates across the hash ring
//
// cmd/synthd wraps this package as a standalone daemon; serve/client is
// the Go client; cmd/compile -remote routes the CLI through a daemon.
package serve

import (
	"fmt"
	"strings"
	"time"

	"repro/optimize"
	"repro/synth"
	"repro/synth/serve/cluster"
)

// CompileRequest asks the service to compile an OpenQASM 2.0 circuit down
// to Clifford+T. Zero-valued fields select the server's defaults, so the
// minimal request is just {"qasm": "..."}. The knobs mirror cmd/compile's
// flags one-for-one.
type CompileRequest struct {
	// QASM is the OpenQASM 2.0 source of the circuit. Required.
	QASM string `json:"qasm"`
	// Backend names a registered backend (empty = server default).
	Backend string `json:"backend,omitempty"`
	// Eps, when positive, is the circuit-level error budget split across
	// rotations; Budget picks the splitting strategy (uniform, weighted).
	Eps    float64 `json:"eps,omitempty"`
	Budget string  `json:"budget,omitempty"`
	// RotEps is the per-rotation epsilon used when Eps is zero (0 = backend
	// default).
	RotEps float64 `json:"rot_eps,omitempty"`
	// IR forces the lowering workflow: "auto", "u3", "rz".
	IR string `json:"ir,omitempty"`
	// Passes overrides the pass sequence by name (default: the full
	// transpile → fuse → snap → lower → estimate pipeline).
	Passes []string `json:"passes,omitempty"`
	// Samples/TBudget/Seed are the trasyn sampling knobs and base seed.
	Samples int    `json:"samples,omitempty"`
	TBudget int    `json:"tbudget,omitempty"`
	Seed    *int64 `json:"seed,omitempty"`
	// OptLevel sets the T-count optimizer level (synth.WithOptimize):
	// 0 off, 1 pre-lowering rotation folding, 2 also post-lowering
	// Clifford+T peephole. Optimizers, when set, selects the
	// post-lowering rule chain by optimize-registry name and implies
	// level 2.
	OptLevel   int      `json:"opt_level,omitempty"`
	Optimizers []string `json:"optimizers,omitempty"`
	// Fuse2Q prepends the two-qubit block-fusion pass (KAK re-synthesis
	// of pair-confined gate runs) to the canned sequence.
	Fuse2Q bool `json:"fuse_2q,omitempty"`
	// TimeoutMs bounds this compile inside the server's own request
	// timeout; the tighter of the two wins.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// Pipeline checks the request's pipeline fields and builds the pipeline
// they describe over the named backend (the caller resolves the default),
// returning the budget strategy NewCompileStats echoes. extra carries the
// caller's own wiring — workers, cache, observer, progress — and applies
// last. synthd and cmd/compile's local path both build through it, so one
// request compiles the same way in either place. QASM and TimeoutMs are
// the caller's to handle.
func (req CompileRequest) Pipeline(backend string, extra ...synth.Option) (*synth.Pipeline, synth.BudgetStrategy, error) {
	ir, ok := synth.ParseIR(req.IR)
	if !ok {
		return nil, 0, fmt.Errorf("unknown ir %q (have auto, u3, rz)", req.IR)
	}
	strat, ok := synth.ParseBudgetStrategy(req.Budget)
	if !ok {
		return nil, 0, fmt.Errorf("unknown budget %q (have uniform, weighted)", req.Budget)
	}
	opts := []synth.Option{
		synth.WithRequest(synth.Request{
			Epsilon: req.RotEps, Samples: req.Samples, TBudget: req.TBudget, Seed: req.Seed,
		}),
		synth.WithIR(ir),
	}
	if req.Eps > 0 {
		opts = append(opts, synth.WithCircuitEpsilon(req.Eps), synth.WithBudgetStrategy(strat))
	}
	if req.OptLevel < 0 {
		return nil, 0, fmt.Errorf("negative opt_level %d", req.OptLevel)
	}
	if len(req.Passes) > 0 && (req.OptLevel > 0 || len(req.Optimizers) > 0) {
		// An explicit pass list overrides the canned sequence, so the opt
		// knobs would be silently ignored — refuse the combination.
		return nil, 0, fmt.Errorf("opt_level/optimizers cannot be combined with passes; add optrot/optct to the pass list instead")
	}
	if req.OptLevel > 0 {
		opts = append(opts, synth.WithOptimize(req.OptLevel))
	}
	if req.Fuse2Q {
		if len(req.Passes) > 0 {
			return nil, 0, fmt.Errorf("fuse_2q cannot be combined with passes; add fuse2q to the pass list instead")
		}
		opts = append(opts, synth.WithFuseBlocks())
	}
	if len(req.Optimizers) > 0 {
		for _, n := range req.Optimizers {
			if _, ok := optimize.Lookup(n); !ok {
				return nil, 0, fmt.Errorf("unknown optimizer %q (have %s)", n, strings.Join(optimize.List(), ", "))
			}
		}
		opts = append(opts, synth.WithOptimizers(req.Optimizers...))
	}
	if len(req.Passes) > 0 {
		var ps []synth.Pass
		for _, n := range req.Passes {
			p, ok := synth.LookupPass(strings.TrimSpace(n))
			if !ok {
				return nil, 0, fmt.Errorf("unknown pass %q (have %s)", n, strings.Join(synth.PassNames(), ", "))
			}
			ps = append(ps, p)
		}
		opts = append(opts, synth.WithPasses(ps...))
	}
	pl, err := synth.NewPipelineFor(backend, append(opts, extra...)...)
	return pl, strat, err
}

// CompileStats is the stats record of one compile — the same shape
// cmd/compile prints, so local and remote compiles are diffable.
type CompileStats struct {
	Backend     string  `json:"backend"`
	IRRotations int     `json:"ir_rotations"`
	Rotations   int     `json:"rotations"`
	Unique      int     `json:"unique"`
	Hits        int     `json:"cache_hits"`
	Misses      int     `json:"cache_misses"`
	TCount      int     `json:"t_count"`
	TDepth      int     `json:"t_depth"`
	Clifford    int     `json:"clifford"`
	ErrorBound  float64 `json:"error_bound"`
	CircuitEps  float64 `json:"circuit_eps,omitempty"`
	Budget      string  `json:"budget,omitempty"`
	// Optimizer accounting, present when an optimizer pass ran:
	// TCountBefore/TCountAfter bracket the post-lowering fixed-point run
	// (TSaved = the T gates it reclaimed); RotationsFolded counts the IR
	// rotations the pre-lowering pass removed before synthesis;
	// OptIterations is the driver's sweep count.
	TCountBefore    int `json:"t_count_before,omitempty"`
	TCountAfter     int `json:"t_count_after,omitempty"`
	TSaved          int `json:"t_saved,omitempty"`
	RotationsFolded int `json:"rotations_folded,omitempty"`
	OptIterations   int `json:"opt_iterations,omitempty"`
	// Block-fusion accounting, present when the fuse2q pass ran:
	// BlocksFused counts two-qubit runs replaced by their KAK re-synthesis
	// and BlockCXSaved the two-qubit gates that saved (in CX units).
	BlocksFused  int     `json:"blocks_fused,omitempty"`
	BlockCXSaved int     `json:"block_cx_saved,omitempty"`
	Passes       string  `json:"passes"`
	WallMs       float64 `json:"wall_ms"`
	// QueueWaitMs is how long the request waited for an execution slot;
	// ServiceMs is the execution time after admission. The server fills
	// both (WallMs is the pipeline's own measure and excludes decode).
	QueueWaitMs float64 `json:"queue_wait_ms"`
	ServiceMs   float64 `json:"service_ms"`
	// TraceID is the request's trace ID when it was sampled — fetch the
	// span tree from GET /debug/trace?id=<TraceID>.
	TraceID string `json:"trace_id,omitempty"`
}

// NewCompileStats assembles the stats record for one pipeline run — the
// single construction both the daemon and cmd/compile's local path use,
// so the two outputs cannot drift apart. circuitEps/strat echo the
// requested circuit-level budget (circuitEps <= 0 = per-rotation mode,
// omitted from the JSON).
func NewCompileStats(res *synth.PipelineResult, passes []string, circuitEps float64, strat synth.BudgetStrategy) CompileStats {
	st := CompileStats{
		Backend:     res.Backend,
		IRRotations: res.Stats.IRRotations,
		Rotations:   res.Stats.Rotations,
		Unique:      res.Stats.Unique,
		Hits:        res.Stats.Hits,
		Misses:      res.Stats.Misses,
		TCount:      res.Circuit.TCount(),
		TDepth:      res.Circuit.TDepth(),
		Clifford:    res.Circuit.CliffordCount(),
		ErrorBound:  res.Stats.ErrorBound,
		Passes:      strings.Join(passes, ","),
		WallMs:      float64(res.Wall) / float64(time.Millisecond),
	}
	if circuitEps > 0 {
		st.CircuitEps = circuitEps
		st.Budget = strat.String()
	}
	if opt := res.Stats.Opt; opt != nil {
		st.TCountBefore = opt.TCountBefore
		st.TCountAfter = opt.TCountAfter
		st.TSaved = opt.TSaved()
		st.RotationsFolded = opt.PreRotationsBefore - opt.PreRotationsAfter
		st.OptIterations = opt.Iterations
	}
	if fuse := res.Stats.Fuse; fuse != nil {
		st.BlocksFused = fuse.Blocks
		st.BlockCXSaved = fuse.CXSaved
	}
	return st
}

// CompileResponse is the lowered circuit plus its stats.
type CompileResponse struct {
	QASM  string       `json:"qasm"`
	Stats CompileStats `json:"stats"`
}

// Rotation is one single-qubit rotation to synthesize: gate "rx", "ry",
// "rz" (Params[0] = θ) or "u3" (θ, φ, λ).
type Rotation struct {
	Gate   string     `json:"gate"`
	Params [3]float64 `json:"params"`
}

// SynthesizeRequest asks for Clifford+T sequences for a batch of
// rotations. Repeated rotations inside the batch — and across every past
// request sharing the daemon's cache — cost one synthesis.
type SynthesizeRequest struct {
	// Rotations is the batch. Required, non-empty.
	Rotations []Rotation `json:"rotations"`
	// Backend names a registered backend (empty = server default).
	Backend string `json:"backend,omitempty"`
	// Eps is the per-rotation error threshold (0 = backend default).
	Eps float64 `json:"eps,omitempty"`
	// Samples/TBudget/Seed are the trasyn knobs and base seed.
	Samples int    `json:"samples,omitempty"`
	TBudget int    `json:"tbudget,omitempty"`
	Seed    *int64 `json:"seed,omitempty"`
	// TimeoutMs bounds the batch inside the server's request timeout.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// SynthesizeResult is one synthesized rotation, in request order.
type SynthesizeResult struct {
	// Seq is the Clifford+T sequence as space-separated mnemonics in
	// matrix-product order (parse with internal gates.Parse or feed back
	// into QASM via the client).
	Seq string `json:"seq"`
	// Error is the realized unitary distance to the target.
	Error float64 `json:"error"`
	// TCount/Clifford are gate counts; Backend is the producing backend
	// (for "auto", the race winner).
	TCount   int    `json:"t_count"`
	Clifford int    `json:"clifford"`
	Backend  string `json:"backend"`
	// WallMs is the synthesis wall time; 0 means the sequence was served
	// from the shared cache.
	WallMs float64 `json:"wall_ms"`
	// Failure, when non-empty, marks a contained per-op failure (a
	// backend panic recovered at the worker boundary): Seq is empty and
	// the gate counts are zero, but the rest of the batch — and the
	// request — succeeded. Error (the realized distance) stays 0.
	Failure string `json:"failure,omitempty"`
}

// SynthesizeResponse carries the batch results plus the cache accounting
// for this request.
type SynthesizeResponse struct {
	Results []SynthesizeResult `json:"results"`
	Hits    int64              `json:"cache_hits"`
	Misses  int64              `json:"cache_misses"`
	// Failed counts results carrying a Failure — 0 on the happy path.
	Failed int `json:"failed,omitempty"`
	// QueueWaitMs/ServiceMs split the request's admission wait from its
	// execution time; TraceID is set when the request was sampled.
	QueueWaitMs float64 `json:"queue_wait_ms"`
	ServiceMs   float64 `json:"service_ms"`
	TraceID     string  `json:"trace_id,omitempty"`
}

// Health is the GET /healthz body.
type Health struct {
	Status   string   `json:"status"`
	Backends []string `json:"backends"`
	// Default is the backend used when a request names none.
	Default string `json:"default_backend"`
	// CacheSize/CacheCap/CacheShards describe the resident cache.
	CacheSize   int   `json:"cache_size"`
	CacheCap    int   `json:"cache_cap"`
	CacheShards int   `json:"cache_shards"`
	UptimeMs    int64 `json:"uptime_ms"`
	// NodeID/ClusterSize are set in cluster mode: this node's ring ID and
	// the ring's member count (self included). Breakers is the per-peer
	// circuit-breaker state (closed / half-open / open), so one /healthz
	// poll shows which peers this node currently considers dead.
	NodeID      string                `json:"node_id,omitempty"`
	ClusterSize int                   `json:"cluster_size,omitempty"`
	Breakers    []cluster.PeerBreaker `json:"breakers,omitempty"`
}

// StatsCell is one (backend, ε-band, angle-class) row of GET /v1/stats:
// the counters plus the sketch quantiles rendered in milliseconds.
// Quantiles cover performed syntheses only (cache hits are counted, not
// timed) and carry the sketch's documented relative error bound.
type StatsCell struct {
	Backend string `json:"backend"`
	EpsBand string `json:"eps_band"`
	Class   string `json:"class"`
	// Count is every observation in the cell; CacheHits + Synthesized +
	// Errors always equals Count.
	Count       int64 `json:"count"`
	CacheHits   int64 `json:"cache_hits"`
	Synthesized int64 `json:"synthesized"`
	// Wins/Losses split performed syntheses by race outcome (a non-racing
	// backend's syntheses all count as wins); Errors counts failed racers.
	Wins   int64 `json:"wins"`
	Losses int64 `json:"losses"`
	Errors int64 `json:"errors"`
	// MeanT averages T counts over observations where it was known.
	MeanT float64 `json:"mean_t"`
	// P50Ms/P95Ms/P99Ms are synthesis wall-time quantiles (0 when the
	// cell has no performed synthesis).
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// NodeStats is one node's view in GET /v1/stats: service gauges plus the
// per-cell statistics table. In the federated response an unreachable
// peer appears with Error set and everything else zero.
type NodeStats struct {
	Node  string `json:"node"`
	Error string `json:"error,omitempty"`
	// UptimeMs is the node's uptime; CacheSize/CacheHits/CacheMisses and
	// HitRate describe its resident cache; Inflight/QueueDepth its
	// admission state at scrape time.
	UptimeMs    int64       `json:"uptime_ms,omitempty"`
	CacheSize   int         `json:"cache_size"`
	CacheHits   int64       `json:"cache_hits"`
	CacheMisses int64       `json:"cache_misses"`
	HitRate     float64     `json:"hit_rate"`
	Inflight    int         `json:"inflight"`
	QueueDepth  int         `json:"queue_depth"`
	Cells       []StatsCell `json:"cells"`
}

// StatsResponse is the GET /v1/stats body. Without ?cluster=1 (or on a
// non-clustered daemon) Fleet and the single Nodes entry are the same
// local view. With it, Nodes holds every ring member's own view and
// Fleet the lossless merge: each Fleet cell's counts equal the sum of
// that cell across Nodes, and its quantiles are computed from the merged
// sketches, not averaged.
type StatsResponse struct {
	Cluster bool        `json:"cluster"`
	Fleet   NodeStats   `json:"fleet"`
	Nodes   []NodeStats `json:"nodes"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
