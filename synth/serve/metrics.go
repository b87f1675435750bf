package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// latencyBuckets are the request-histogram upper bounds in seconds.
// Synthesis spans ~1ms cache hits to multi-minute tight-epsilon compiles,
// so the buckets are log-spaced across that range.
var latencyBuckets = []float64{
	0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60, 300,
}

// queueWaitBuckets resolve the admission queue: waits are usually
// microseconds (free slot) but stretch to seconds under saturation.
var queueWaitBuckets = []float64{
	0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10,
}

// fineBuckets resolve per-pass times, which start well under a
// millisecond (transpile on a small circuit) and top out around a minute.
var fineBuckets = []float64{
	0.00001, 0.0001, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60,
}

// histogram is a fixed-bucket latency histogram (cumulative counts, like
// Prometheus's classic histogram type). Each histogram owns its bucket
// bounds, so coarse request latencies and sub-millisecond pass times
// don't share one resolution.
type histogram struct {
	buckets []float64
	counts  []int64 // counts[i] = observations <= buckets[i]
	sum     float64
	count   int64
}

func newHistogram(buckets []float64) *histogram {
	return &histogram{buckets: buckets, counts: make([]int64, len(buckets))}
}

func (h *histogram) observe(seconds float64) {
	for i, ub := range h.buckets {
		if seconds <= ub {
			h.counts[i]++
		}
	}
	h.sum += seconds
	h.count++
}

// metrics aggregates the service counters exposed on GET /metrics. All
// methods are safe for concurrent use.
type metrics struct {
	mu sync.Mutex
	// requests[endpoint][status] counts completed requests.
	requests map[string]map[int]int64
	// latency[endpoint] observes successful request durations.
	latency map[string]*histogram
	// queueWait observes admission-queue waits — the time split out of
	// service latency, across all endpoints.
	queueWait *histogram
	// pass[pass] observes pipeline pass wall times on every compile,
	// independent of trace sampling. Per-synthesis wall times live in
	// the obs table (synthd_obs_wall_quantile_seconds).
	pass map[string]*histogram
	// rejected counts admissions refused because the queue was full.
	rejected int64
	// panics[site] counts panics recovered at a containment boundary
	// ("backend:gridsynth", "racer:trasyn", "handler:/v1/compile").
	// Any nonzero value is a latent bug being survived, not business
	// as usual.
	panics map[string]int64
}

func newMetrics() *metrics {
	return &metrics{
		requests:  map[string]map[int]int64{},
		latency:   map[string]*histogram{},
		queueWait: newHistogram(queueWaitBuckets),
		pass:      map[string]*histogram{},
		panics:    map[string]int64{},
	}
}

// panicAt logs one recovered panic at a containment site.
func (m *metrics) panicAt(site string) {
	m.mu.Lock()
	m.panics[site]++
	m.mu.Unlock()
}

// record logs one completed request.
func (m *metrics) record(endpoint string, status int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byStatus := m.requests[endpoint]
	if byStatus == nil {
		byStatus = map[int]int64{}
		m.requests[endpoint] = byStatus
	}
	byStatus[status]++
	if status < 400 {
		h := m.latency[endpoint]
		if h == nil {
			h = newHistogram(latencyBuckets)
			m.latency[endpoint] = h
		}
		h.observe(d.Seconds())
	}
}

// observeQueueWait logs one admission wait (every admitted request,
// including those whose handler later fails).
func (m *metrics) observeQueueWait(d time.Duration) {
	m.mu.Lock()
	m.queueWait.observe(d.Seconds())
	m.mu.Unlock()
}

// observePass logs one executed pipeline pass.
func (m *metrics) observePass(pass string, d time.Duration) {
	m.mu.Lock()
	h := m.pass[pass]
	if h == nil {
		h = newHistogram(fineBuckets)
		m.pass[pass] = h
	}
	h.observe(d.Seconds())
	m.mu.Unlock()
}

// reject logs one admission-control rejection.
func (m *metrics) reject() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

// scrapeMetric is one point-in-time value the server contributes at
// scrape time (cache counters, queue depth).
type scrapeMetric struct {
	name, help, kind string // kind: "gauge" or "counter"
	value            float64
}

// writeHistogram renders one histogram series with the given label
// string ("" or `name="value",...` without braces).
func writeHistogram(w io.Writer, name, labels string, h *histogram) {
	sep := func(extra string) string {
		switch {
		case labels == "" && extra == "":
			return ""
		case labels == "":
			return "{" + extra + "}"
		case extra == "":
			return "{" + labels + "}"
		default:
			return "{" + labels + "," + extra + "}"
		}
	}
	for i, ub := range h.buckets {
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, sep(fmt.Sprintf("le=%q", trimFloat(ub))), h.counts[i])
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, sep(`le="+Inf"`), h.count)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, sep(""), h.sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, sep(""), h.count)
}

// trimFloat renders a bucket bound the way Prometheus clients do (%g).
func trimFloat(v float64) string { return fmt.Sprintf("%g", v) }

// write renders the Prometheus text exposition format: the counters and
// histograms accumulated here plus the caller's scrape-time values.
func (m *metrics) write(w io.Writer, scraped []scrapeMetric) {
	for _, g := range scraped {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", g.name, g.help, g.name, g.kind, g.name, g.value)
	}

	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP synthd_rejected_total Requests refused by admission control.\n")
	fmt.Fprintf(w, "# TYPE synthd_rejected_total counter\n")
	fmt.Fprintf(w, "synthd_rejected_total %d\n", m.rejected)

	fmt.Fprintf(w, "# HELP synthd_requests_total Completed requests by endpoint and status code.\n")
	fmt.Fprintf(w, "# TYPE synthd_requests_total counter\n")
	for _, ep := range sortedKeys(m.requests) {
		byStatus := m.requests[ep]
		codes := make([]int, 0, len(byStatus))
		for c := range byStatus {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(w, "synthd_requests_total{endpoint=%q,code=\"%d\"} %d\n", ep, c, byStatus[c])
		}
	}

	fmt.Fprintf(w, "# HELP synthd_request_seconds Latency of successful requests (service time, queue wait excluded).\n")
	fmt.Fprintf(w, "# TYPE synthd_request_seconds histogram\n")
	for _, ep := range sortedKeys(m.latency) {
		writeHistogram(w, "synthd_request_seconds", fmt.Sprintf("endpoint=%q", ep), m.latency[ep])
	}

	fmt.Fprintf(w, "# HELP synthd_queue_wait_seconds Time admitted requests spent waiting for an execution slot.\n")
	fmt.Fprintf(w, "# TYPE synthd_queue_wait_seconds histogram\n")
	writeHistogram(w, "synthd_queue_wait_seconds", "", m.queueWait)

	fmt.Fprintf(w, "# HELP synthd_pass_seconds Wall time of pipeline passes by pass name.\n")
	fmt.Fprintf(w, "# TYPE synthd_pass_seconds histogram\n")
	for _, p := range sortedKeys(m.pass) {
		writeHistogram(w, "synthd_pass_seconds", fmt.Sprintf("pass=%q", p), m.pass[p])
	}

	fmt.Fprintf(w, "# HELP synthd_panics_total Panics recovered at containment boundaries, by site.\n")
	fmt.Fprintf(w, "# TYPE synthd_panics_total counter\n")
	for _, site := range sortedKeys(m.panics) {
		fmt.Fprintf(w, "synthd_panics_total{site=%q} %d\n", site, m.panics[site])
	}
}

// sortedKeys returns the map's keys in sorted order, for a stable scrape.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
