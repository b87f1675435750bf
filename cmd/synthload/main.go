// Command synthload is the cluster load generator: it drives one or more
// synthd nodes at a target request rate with rotation batches drawn from
// the circuit/gen workload corpus, measures per-request latency
// client-side, and prints the run's summary — request, throttle,
// rejection and error counts (with a per-status-code breakdown, and
// transport-level failures tallied separately), hit rate, p50/p95/p99
// latency and achieved rate — as one JSON object on stdout.
//
// Arrivals are open-loop: requests launch on the offered schedule
// (start + i/rps) regardless of how many are still outstanding, so a
// saturated or degraded cluster shows up as latency and 429/503 counts
// instead of silently slowing the generator down (closed-loop generators
// measure their own backpressure, not the service). Targets are hit
// round-robin, which on a consistent-hash cluster makes every node serve
// every key — the cache-affinity stress the peer-lookup path exists for.
//
// Usage:
//
//	synthload -targets http://127.0.0.1:8077 -rps 25 -duration 10s
//	synthload -targets http://n1:8077,http://n2:8077,http://n3:8077 \
//	          -rps 25 -duration 30s -eps 1e-2 -backend gridsynth \
//	          -tenant bench -retries 0 > summary.json
//
// The workload is deterministic: the angle pool is extracted from
// circuit/gen QAOA circuits at fixed seeds, and requests walk the pool
// round-robin, so a run longer than one pool lap is exactly the repeated
// workload a warm cache should absorb. Recorded, comparable measurements
// come from cmd/bench, whose serve_mix workload runs a cluster in-process.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/circuit"
	"repro/circuit/gen"
	"repro/synth/serve"
	"repro/synth/serve/client"
)

type result struct {
	latencyMs float64
	status    string // ok | throttled | rejected | error
	code      int    // HTTP status, or 0 for a transport-level failure
	hits      int64
	misses    int64
}

// summary is the run's one JSON line on stdout.
type summary struct {
	Requests  int `json:"requests"`
	OK        int `json:"ok"`
	Throttled int `json:"throttled"`
	Rejected  int `json:"rejected"`
	Errors    int `json:"errors"`
	// TransportErrors are failures that never produced an HTTP status —
	// refused/reset connections, timeouts — i.e. a dead or unreachable
	// node, as distinct from a node that answered with a rejection.
	// ByCode counts every non-200 HTTP status the run saw ("429", "503",
	// "500", …), so a chaos run can bound specific failure classes.
	TransportErrors int            `json:"transport_errors"`
	ByCode          map[string]int `json:"by_code"`
	ErrorRate       float64        `json:"error_rate"`
	HitRate         float64        `json:"hit_rate"`
	P50Ms           float64        `json:"p50_ms"`
	P95Ms           float64        `json:"p95_ms"`
	P99Ms           float64        `json:"p99_ms"`
	AchievedRPS     float64        `json:"achieved_rps"`
}

func main() {
	var (
		targets   = flag.String("targets", "http://127.0.0.1:8077", "comma-separated synthd base URLs, hit round-robin")
		rps       = flag.Float64("rps", 25, "offered request rate (open loop)")
		duration  = flag.Duration("duration", 10*time.Second, "generation window")
		eps       = flag.Float64("eps", 1e-2, "per-rotation epsilon")
		backend   = flag.String("backend", "gridsynth", "backend for every request")
		batch     = flag.Int("batch", 1, "rotations per request")
		angles    = flag.Int("angles", 32, "distinct angles in the workload pool")
		seed      = flag.Int64("seed", 1, "corpus seed (the angle pool is deterministic in it)")
		tenant    = flag.String("tenant", "", "X-Tenant header value (empty = anonymous)")
		retries   = flag.Int("retries", 0, "client retries on 429/503 (0 = measure raw rejections)")
		reqTO     = flag.Duration("req-timeout", 30*time.Second, "per-request deadline")
		warmWaves = flag.Int("warm-waves", 0, "closed-loop laps over the angle pool before the timed window (pre-warms the cluster)")
	)
	flag.Parse()

	urls := splitNonEmpty(*targets)
	if len(urls) == 0 {
		fatalf("no -targets")
	}
	if *rps <= 0 || *batch <= 0 || *angles <= 0 {
		fatalf("-rps, -batch and -angles must be positive")
	}
	pool := anglePool(*angles, *seed)

	clients := make([]*client.Client, len(urls))
	opts := []client.Option{client.WithRetry(*retries)}
	if *tenant != "" {
		opts = append(opts, client.WithTenant(*tenant))
	}
	for i, u := range urls {
		clients[i] = client.New(u, opts...)
	}

	ctx := context.Background()
	for i, cl := range clients {
		if _, err := cl.Health(ctx); err != nil {
			fatalf("target %s unhealthy: %v", urls[i], err)
		}
	}

	request := func(i int) serve.SynthesizeRequest {
		rots := make([]serve.Rotation, *batch)
		for j := range rots {
			rots[j] = serve.Rotation{Gate: "rz", Params: [3]float64{pool[(i**batch+j)%len(pool)]}}
		}
		return serve.SynthesizeRequest{Rotations: rots, Backend: *backend, Eps: *eps}
	}

	// Optional closed-loop warmup: one request per pool angle per wave,
	// spread over the targets, so the timed window measures the steady
	// state instead of the cold ramp.
	for w := 0; w < *warmWaves; w++ {
		for i := 0; i < (len(pool)+*batch-1)/(*batch); i++ {
			cl := clients[i%len(clients)]
			cctx, cancel := context.WithTimeout(ctx, *reqTO)
			if _, err := cl.Synthesize(cctx, request(i)); err != nil {
				fmt.Fprintf(os.Stderr, "synthload: warmup: %v\n", err)
			}
			cancel()
		}
	}

	interval := time.Duration(float64(time.Second) / *rps)
	total := int(float64(*duration) / float64(interval))
	fmt.Fprintf(os.Stderr, "synthload: %d requests over %s (%.1f rps, %d targets, pool %d angles)\n",
		total, *duration, *rps, len(urls), len(pool))

	results := make([]result, total)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < total; i++ {
		// Open loop: fire at the scheduled arrival even if earlier
		// requests are still in flight.
		if wait := start.Add(time.Duration(i) * interval).Sub(time.Now()); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := clients[i%len(clients)]
			cctx, cancel := context.WithTimeout(ctx, *reqTO)
			defer cancel()
			t0 := time.Now()
			resp, err := cl.Synthesize(cctx, request(i))
			lat := time.Since(t0)
			r := result{latencyMs: float64(lat) / float64(time.Millisecond)}
			switch {
			case err == nil:
				r.status = "ok"
				r.code = 200
				r.hits, r.misses = resp.Hits, resp.Misses
			default:
				var ae *client.APIError
				if errors.As(err, &ae) {
					r.code = ae.Status
					switch ae.Status {
					case 429:
						r.status = "throttled"
					case 503:
						r.status = "rejected"
					default:
						r.status = "error"
					}
				} else {
					r.status = "error" // transport-level: no status reached us
				}
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	if err := json.NewEncoder(os.Stdout).Encode(summarize(results, time.Since(start))); err != nil {
		fatalf("%v", err)
	}
}

// anglePool extracts n rotation angles from the deterministic QAOA
// corpus: the merged RZ/RX angles of gen.QAOAMaxCut circuits at seeds
// seed, seed+1, … — real workload angles, not synthetic uniforms, so
// quantization and cache behavior match what a compile endpoint sees.
func anglePool(n int, seed int64) []float64 {
	var pool []float64
	seen := map[int64]bool{}
	for s := seed; len(pool) < n && s < seed+int64(4*n); s++ {
		c := gen.QAOAMaxCut(8, 2, s)
		for _, op := range c.Ops {
			var theta float64
			switch op.G {
			case circuit.RZ, circuit.RX, circuit.RY:
				theta = op.P[0]
			default:
				continue
			}
			// Dedup at the cache's own quantization so the pool size is
			// the real distinct-key count.
			q := int64(math.Round(theta * 1e12))
			if seen[q] {
				continue
			}
			seen[q] = true
			pool = append(pool, theta)
			if len(pool) == n {
				break
			}
		}
	}
	return pool
}

func summarize(results []result, elapsed time.Duration) summary {
	sum := summary{ByCode: map[string]int{}}
	var lats []float64
	var hits, misses int64
	for _, r := range results {
		sum.Requests++
		switch r.status {
		case "ok":
			sum.OK++
			lats = append(lats, r.latencyMs)
			hits += r.hits
			misses += r.misses
		case "throttled":
			sum.Throttled++
		case "rejected":
			sum.Rejected++
		default:
			sum.Errors++
			if r.code == 0 {
				sum.TransportErrors++
			}
		}
		if r.code != 200 && r.code != 0 {
			sum.ByCode[strconv.Itoa(r.code)]++
		}
	}
	if sum.Requests > 0 {
		sum.ErrorRate = float64(sum.Errors) / float64(sum.Requests)
	}
	if hits+misses > 0 {
		sum.HitRate = float64(hits) / float64(hits+misses)
	}
	if len(lats) > 0 {
		sort.Float64s(lats)
		sum.P50Ms = percentile(lats, 0.50)
		sum.P95Ms = percentile(lats, 0.95)
		sum.P99Ms = percentile(lats, 0.99)
	}
	if elapsed > 0 {
		sum.AchievedRPS = float64(sum.Requests) / elapsed.Seconds()
	}
	return sum
}

// percentile reads the p-quantile from sorted latencies (nearest rank).
func percentile(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "synthload: "+format+"\n", args...)
	os.Exit(2)
}
