package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"sync"
	"time"

	"repro/internal/gates"
	"repro/internal/qmat"
	"repro/synth"
	"repro/synth/serve"
	"repro/synth/serve/client"
	"repro/synth/serve/cluster"
	"repro/synth/trace"
)

// serve_mix parameters. Each request is servePerReq Rz rotations through
// gridsynth at serveEps; nine in ten draw from a hot pool of serveHot
// angles (cache hits), every tenth carries fresh angles (a miss, a peer
// lookup, a synthesis, an insert and an owner push).
const (
	serveEps        = 1e-4
	servePerReq     = 8
	serveHot        = 64
	serveWriteEvery = 10
	serveRate       = 1000.0 // requests per second, split round-robin over the two nodes
	// serveQuality is the size of the quality corpus: Rz angles drawn at
	// qualitySeed and sent through the cluster after the timed phases,
	// whose answers give t_per_rotation and outputs_sha.
	serveQuality = 128
	// serveClusterReps is how many times set-up starts and warms the
	// cluster; setup_s takes the median.
	serveClusterReps = 11
	// serveSLO is the p99 limit a rung of the rate ladder must meet.
	serveSLO = 20 * time.Millisecond
	// serveTimeout bounds one request; a request that times out has
	// failed.
	serveTimeout = 10 * time.Second
)

// serveLadder is the rate ladder a traced run climbs after its 1000 req/s
// phases, stopping at the first rung that misses the SLO.
var serveLadder = []float64{1250, 1500, 1750, 2000}

// runServeMix drives a two-node in-process synthd cluster with one
// open-loop generator, at most one connection per node.
func runServeMix(ctx context.Context, r *run) error {
	r.absent("trasyn.", "race.", "pass.", "opt.")
	hotRng := rand.New(rand.NewSource(r.seed))
	hot := make([]float64, serveHot)
	for i := range hot {
		hot[i] = hotRng.Float64() * 2 * math.Pi
	}
	corpusRng := rand.New(rand.NewSource(qualitySeed))
	corpus := make([]float64, serveQuality)
	for i := range corpus {
		corpus[i] = corpusRng.Float64() * 2 * math.Pi
	}
	rate := serveRate
	if r.smoke {
		hot, corpus, rate = hot[:8], corpus[:8], 200
	}
	tabs, err := r.tableSetup()
	if err != nil {
		return err
	}
	book := newSeqBook()
	var c *serveCluster
	setup, err := repeat(serveClusterReps, func() error {
		if c != nil {
			if err := c.close(); err != nil {
				return err
			}
		}
		var err error
		if c, err = startCluster(r.trace); err != nil {
			return err
		}
		return c.warm(ctx, hot, book)
	})
	if err != nil {
		if c != nil {
			c.close()
		}
		return err
	}
	defer c.close()
	r.setSetup(tabs, setup)

	load := newServeLoad(r.seed, hot)
	// A traced run leaves 40% of its time to the rate ladder.
	untraced, traced := r.seconds, r.seconds*3/10
	if r.trace {
		untraced = traced
	}
	base, err := c.phase(ctx, load, rate, untraced, nil, book)
	if err != nil {
		return err
	}
	// Reads and writes differ tenfold in cost and ninefold in number: the
	// median request is always a read, so the metric weighs the two
	// classes' medians equally and a slower write path moves it.
	var classes [2][]timing
	for i, t := range base.lat {
		if isWrite(i) {
			classes[1] = append(classes[1], t)
		} else {
			classes[0] = append(classes[0], t)
		}
	}
	r.setLatencyByInput([]string{"reads", "writes"}, classes[:], base.ws)
	r.noteTail("latency all requests", base.lat)
	if !r.trace {
		r.setWindow(base.ws)
	}

	phases := []*servePhase{base}
	if r.trace {
		tab := newSpanTable()
		tp, err := c.phase(ctx, load, rate, traced, tab, book)
		if err != nil {
			return err
		}
		r.setWindow(tp.ws)
		tp.setLayers(r, tab)
		r.setOverhead(base.lat, tp.lat)
		rungs, err := r.serveLadder(ctx, c, load, base, book)
		if err != nil {
			return err
		}
		phases = append(append(phases, tp), rungs...)
	}

	qp, err := c.qualityLap(ctx, corpus, book)
	if err != nil {
		return err
	}
	phases = append(phases, qp)

	// Verification runs after every timed phase, so checking adds no load:
	// each distinct (angle, sequence) answer is parsed and multiplied out
	// once.
	bad := book.verify(r)
	for _, ph := range phases {
		ph.count(r, bad)
	}
	return r.serveQuality(book, corpus)
}

// serveCluster is two synthd nodes on loopback listeners, each a
// serve.Server over a cluster.Node that knows the other.
type serveCluster struct {
	nodes [2]*serveNode
}

type serveNode struct {
	node   *cluster.Node
	srv    *serve.Server
	hs     *http.Server
	served chan error
	tracer *trace.Tracer
	cl     *client.Client
	// front carries the benchmark's requests to the node: one connection,
	// so requests queue in the client as they would behind one upstream
	// proxy connection. peers carries the node's own peer calls.
	front, peers *http.Transport
}

// startCluster starts both nodes. With traced set each node records the
// trace fragments of requests arriving with a traceparent header; it
// samples nothing on its own.
func startCluster(traced bool) (*serveCluster, error) {
	ids := [2]string{"a", "b"}
	var lns [2]net.Listener
	var urls [2]string
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	c := &serveCluster{}
	for i := range c.nodes {
		n := &serveNode{
			served: make(chan error, 1),
			front:  &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			peers:  &http.Transport{MaxIdleConnsPerHost: 16},
		}
		if traced {
			n.tracer = trace.New(trace.Config{RingSize: 1 << 18})
		}
		node, err := cluster.New(cluster.Config{
			SelfID: ids[i],
			Peers:  map[string]string{ids[1-i]: urls[1-i]},
			Client: &http.Client{Transport: n.peers},
			Tracer: n.tracer,
		})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			c.close()
			return nil, err
		}
		n.node = node
		n.srv = serve.New(serve.Config{DefaultBackend: "gridsynth", Cluster: node, Tracer: n.tracer})
		n.hs = &http.Server{Handler: n.srv.Handler()}
		n.cl = client.New(urls[i], client.WithHTTPClient(&http.Client{Transport: n.front}))
		go func(ln net.Listener) { n.served <- n.hs.Serve(ln) }(lns[i])
		c.nodes[i] = n
	}
	return c, nil
}

// close waits for in-flight owner pushes, then shuts both nodes down and
// waits for their serve loops to return. Client connections close first:
// a connection dialed but never used would otherwise hold Shutdown for
// the five seconds net/http grants a new connection.
func (c *serveCluster) close() error {
	var errs []error
	for _, n := range c.nodes {
		if n != nil {
			n.node.Flush()
			n.front.CloseIdleConnections()
			n.peers.CloseIdleConnections()
		}
	}
	for _, n := range c.nodes {
		if n == nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, n.hs.Shutdown(ctx))
		cancel()
		if err := <-n.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func (c *serveCluster) flush() {
	for _, n := range c.nodes {
		n.node.Flush()
	}
}

// warm sends the hot pool through both nodes, so reads are local hits on
// either, and waits for the owner pushes it caused.
func (c *serveCluster) warm(ctx context.Context, hot []float64, book *seqBook) error {
	for _, n := range c.nodes {
		for j := 0; j < len(hot); j += servePerReq {
			angles := hot[j:min(j+servePerReq, len(hot))]
			resp, err := n.cl.Synthesize(ctx, synthRequest(angles))
			if err != nil {
				return fmt.Errorf("warming the hot pool: %w", err)
			}
			if resp.Failed > 0 {
				return fmt.Errorf("warming the hot pool: %d failed rotations", resp.Failed)
			}
			for k, res := range resp.Results {
				book.add(angles[k], res.Seq)
			}
		}
	}
	c.flush()
	return nil
}

// qualityLap sends the quality corpus through the nodes in turn, one
// request at a time and untimed, and returns its requests for counting
// and checking with the rest. Every corpus angle is fresh to the cluster,
// so each answer takes the write path.
func (c *serveCluster) qualityLap(ctx context.Context, corpus []float64, book *seqBook) (*servePhase, error) {
	ph := &servePhase{}
	for i := 0; i < len(corpus); i += servePerReq {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ph.recs = append(ph.recs, serveRecord{})
		n := len(ph.recs) - 1
		c.request(ctx, nil, corpus[i:min(i+servePerReq, len(corpus))], n, &ph.recs[n], book)
	}
	c.flush()
	return ph, nil
}

func synthRequest(angles []float64) serve.SynthesizeRequest {
	rots := make([]serve.Rotation, len(angles))
	for i, a := range angles {
		rots[i] = serve.Rotation{Gate: "rz", Params: [3]float64{a, 0, 0}}
	}
	return serve.SynthesizeRequest{Rotations: rots, Backend: "gridsynth", Eps: serveEps}
}

// serveLoad generates the request stream from the seed: the same seed
// gives the same requests in the same order, whatever the timing.
type serveLoad struct {
	hot          []float64
	reads, fresh *rand.Rand
}

func newServeLoad(seed int64, hot []float64) *serveLoad {
	return &serveLoad{
		hot:   hot,
		reads: rand.New(rand.NewSource(seed + 1)),
		fresh: rand.New(rand.NewSource(seed + 2)),
	}
}

// isWrite reports whether request i of a phase is a write.
func isWrite(i int) bool { return i%serveWriteEvery == serveWriteEvery-1 }

// next returns the angles of request i of a phase: a write (fresh angles)
// every serveWriteEvery-th request, otherwise a read from the hot pool.
func (l *serveLoad) next(i int) []float64 {
	angles := make([]float64, servePerReq)
	if isWrite(i) {
		for k := range angles {
			angles[k] = l.fresh.Float64() * 2 * math.Pi
		}
		return angles
	}
	for k := range angles {
		angles[k] = l.hot[l.reads.Intn(len(l.hot))]
	}
	return angles
}

// servePhase is one open-loop phase at a fixed rate.
type servePhase struct {
	timings []sendTiming
	// lat is each request's latency from its due time.
	lat  []timing
	recs []serveRecord
	ws   windowStats
	// node counters and cache counters over the phase, summed over nodes.
	peer       cluster.Stats
	hits, miss int64
	size       int
}

// serveRecord is what one request returned.
type serveRecord struct {
	err                error
	queueWait, service float64 // ms, as the node reported them
	failures           int     // results carrying a contained failure
	answers            []int32 // seqBook IDs of the results
	freshMs            []float64
	root               *trace.Span
}

// phase runs the open loop at rate for d. With tab set each request runs
// under a root span and propagates it, and tab aggregates the stitched
// traces once every push has landed.
func (c *serveCluster) phase(ctx context.Context, load *serveLoad, rate float64, d time.Duration, tab *spanTable, book *seqBook) (*servePhase, error) {
	n := max(1, int(rate*d.Seconds()))
	reqs := make([][]float64, n)
	for i := range reqs {
		reqs[i] = load.next(i)
	}
	var tr *trace.Tracer
	if tab != nil {
		tr = trace.New(trace.Config{SampleRatio: 1, RingSize: n})
	}
	ph := &servePhase{recs: make([]serveRecord, n)}
	stats0, cache0 := c.counters()
	w := startWindow()
	ph.timings = openLoop(ctx, n, time.Duration(float64(time.Second)/rate), func(ctx context.Context, i int) {
		c.request(ctx, tr, reqs[i], i, &ph.recs[i], book)
	})
	ph.ws = w.end()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ph.recs = ph.recs[:len(ph.timings)]
	// Request latency is reported as measured (see probe.go).
	ph.lat = make([]timing, len(ph.timings))
	for i, t := range ph.timings {
		wall := t.done.Sub(t.due)
		ph.lat[i] = timing{wall: wall, norm: wall}
	}
	c.flush()
	stats1, cache1 := c.counters()
	ph.peer = cluster.Stats{
		PeerHits:   stats1.PeerHits - stats0.PeerHits,
		PeerMisses: stats1.PeerMisses - stats0.PeerMisses,
		PeerErrors: stats1.PeerErrors - stats0.PeerErrors,
		Pushes:     stats1.Pushes - stats0.Pushes,
		PushErrors: stats1.PushErrors - stats0.PushErrors,
	}
	ph.hits, ph.miss = cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
	ph.size = cache1.Size
	if tab != nil {
		frags := map[uint64][]*trace.Span{}
		for _, nd := range c.nodes {
			for _, sp := range nd.tracer.Recent(0) {
				frags[sp.TraceID()] = append(frags[sp.TraceID()], sp)
			}
		}
		for _, rec := range ph.recs {
			if rec.root != nil {
				tab.addRoot(rec.root, frags[rec.root.TraceID()])
			}
		}
	}
	return ph, nil
}

// request sends one request to node i%2 and records what came back.
func (c *serveCluster) request(ctx context.Context, tr *trace.Tracer, angles []float64, i int, rec *serveRecord, book *seqBook) {
	ctx, cancel := context.WithTimeout(ctx, serveTimeout)
	defer cancel()
	var phases *clientPhases
	if rec.root = tr.Start("request"); rec.root != nil {
		phases = newClientPhases(rec.root)
		ctx = httptrace.WithClientTrace(trace.NewContext(ctx, rec.root), phases.clientTrace())
	}
	resp, err := c.nodes[i%2].cl.Synthesize(ctx, synthRequest(angles))
	phases.next("")
	rec.root.End()
	if err != nil {
		rec.err = err
		return
	}
	rec.queueWait, rec.service, rec.failures = resp.QueueWaitMs, resp.ServiceMs, resp.Failed
	rec.answers = make([]int32, len(resp.Results))
	for k, res := range resp.Results {
		rec.answers[k] = book.add(angles[k], res.Seq)
		if res.WallMs > 0 {
			rec.freshMs = append(rec.freshMs, res.WallMs)
		}
	}
}

// clientPhases splits a traced request's client side into spans under its
// root, one per stage net/http reports: building and encoding the request
// until it asks for a connection (client.encode), waiting for the node's
// one connection (http.conn_wait), writing the request and waiting for the
// first byte of the reply (http.exchange, under which the serving node's
// fragment is grafted), and reading and decoding the reply
// (client.decode). The transport calls back from its own goroutines.
type clientPhases struct {
	mu   sync.Mutex
	root *trace.Span
	cur  *trace.Span
}

func newClientPhases(root *trace.Span) *clientPhases {
	return &clientPhases{root: root, cur: root.Child("client.encode")}
}

// next ends the current stage and, unless name is empty, opens the next.
// It is a no-op on a nil receiver, an untraced request.
func (p *clientPhases) next(name string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cur.End()
	p.cur = nil
	if name != "" {
		p.cur = p.root.Child(name)
	}
}

func (p *clientPhases) clientTrace() *httptrace.ClientTrace {
	return &httptrace.ClientTrace{
		GetConn:              func(string) { p.next("http.conn_wait") },
		GotConn:              func(httptrace.GotConnInfo) { p.next("http.exchange") },
		GotFirstResponseByte: func() { p.next("client.decode") },
	}
}

// counters sums the cluster and cache counters of both nodes.
func (c *serveCluster) counters() (cluster.Stats, synth.CacheStats) {
	var s cluster.Stats
	var cs synth.CacheStats
	for _, n := range c.nodes {
		ns := n.node.Stats()
		s.PeerHits += ns.PeerHits
		s.PeerMisses += ns.PeerMisses
		s.PeerErrors += ns.PeerErrors
		s.Pushes += ns.Pushes
		s.PushErrors += ns.PushErrors
		st := n.srv.Cache().Stats()
		cs.Hits += st.Hits
		cs.Misses += st.Misses
		cs.Size += st.Size
	}
	return s, cs
}

// count charges the phase's requests to attempted and failed: transport
// errors and non-200 responses, contained per-rotation failures, and
// answers that failed verification.
func (ph *servePhase) count(r *run, bad map[int32]bool) {
	for i, rec := range ph.recs {
		r.attempted++
		failed := rec.err != nil || rec.failures > 0
		for _, id := range rec.answers {
			failed = failed || bad[id]
		}
		if failed {
			r.failed++
			if rec.err != nil {
				r.note("request %d: %v", i, rec.err)
			}
		}
	}
}

// setLayers records the serving-side per-layer metrics of a traced phase.
func (ph *servePhase) setLayers(r *run, tab *spanTable) {
	var wait, service, total float64
	var waits, services, overheads, fresh []float64
	lat := msValues(walls(ph.lat))
	for i, rec := range ph.recs {
		if rec.err != nil {
			continue
		}
		wait += rec.queueWait
		service += rec.service
		total += lat[i]
		waits = append(waits, rec.queueWait)
		services = append(services, rec.service)
		overheads = append(overheads, lat[i]-rec.queueWait-rec.service)
		fresh = append(fresh, rec.freshMs...)
	}
	r.set("serve.queue_wait_share", ratio(wait, total))
	r.set("serve.service_share", ratio(service, total))
	r.set("serve.overhead_share", ratio(total-wait-service, total))
	// The overhead, split by the client-side spans.
	r.set("serve.conn_wait_share", tab.share("http.conn_wait"))
	r.set("serve.http_share", tab.selfShare("http.exchange"))
	r.set("serve.codec_share", tab.share("client.encode")+tab.share("client.decode"))
	r.note("serve.queue_wait_ms p50 %.4f p99 %.4f, serve.service_ms p50 %.4f p99 %.4f, serve.overhead_ms p50 %.4f",
		quantile(waits, 0.5), quantile(waits, 0.99), quantile(services, 0.5), quantile(services, 0.99), quantile(overheads, 0.5))
	late := 0.0
	for _, t := range ph.timings {
		late = math.Max(late, float64(t.sent.Sub(t.due))/1e6)
	}
	r.note("serve.gen_late_ms_max %.4f, serve.ms_p99 %.4f, serve.ms_p999 %.4f (n=%d)",
		late, quantile(lat, 0.99), quantile(lat, 0.999), len(lat))

	r.set("cluster.peer_hits", float64(ph.peer.PeerHits))
	r.set("cluster.peer_misses", float64(ph.peer.PeerMisses))
	r.set("cluster.peer_errors", float64(ph.peer.PeerErrors))
	r.set("cluster.pushes", float64(ph.peer.Pushes))
	r.set("cluster.push_errors", float64(ph.peer.PushErrors))
	r.set("cluster.peer_lookup_share", tab.share("peer.lookup"))
	if a := tab.names["peer.lookup"]; a != nil {
		r.note("cluster.peer_lookup_self_ms %.4f per lookup", float64(a.self)/1e6/float64(a.count))
	}
	r.set("cache.hit_rate", ratio(float64(ph.hits), float64(ph.hits+ph.miss)))
	r.set("cache.size", float64(ph.size))

	r.set("gridsynth.ms_p50", quantile(fresh, 0.5))
	r.set("synth.unique_per_op", float64(len(fresh))/float64(len(ph.recs)))
	r.set("synth.ops_per_s", float64(len(fresh))/ph.ws.elapsed.Seconds())
	tab.print(r.out)
	tab.setGridsynth(r)
	r.set("trace.coverage", tab.coverage())
}

// serveLadder climbs the rate ladder from the 1000 req/s phase: a rung
// holds when its p99 stays within serveSLO with no failed request — a
// growing backlog fails it, as its latencies grow without bound. The
// metric is the highest rate that held. It returns the rungs it ran.
func (r *run) serveLadder(ctx context.Context, c *serveCluster, load *serveLoad, base *servePhase, book *seqBook) ([]*servePhase, error) {
	holds := func(ph *servePhase) bool {
		for _, rec := range ph.recs {
			if rec.err != nil || rec.failures > 0 {
				return false
			}
		}
		return quantile(msValues(walls(ph.lat)), 0.99) <= float64(serveSLO)/float64(time.Millisecond)
	}
	var rungs []*servePhase
	best := 0.0
	if holds(base) {
		best = serveRate
		for _, rate := range serveLadder {
			ph, err := c.phase(ctx, load, rate, r.seconds/10, nil, book)
			if err != nil {
				return nil, err
			}
			rungs = append(rungs, ph)
			r.note("ladder %g req/s: p99 %.3f ms over %d requests", rate, quantile(msValues(walls(ph.lat)), 0.99), len(ph.recs))
			if !holds(ph) {
				break
			}
			best = rate
		}
	}
	r.set("serve.max_rps", best)
	return rungs, nil
}

// serveQuality records T counts and the fingerprint over the quality
// corpus's answers.
func (r *run) serveQuality(book *seqBook, corpus []float64) error {
	fp := newFingerprint()
	var tSum, cSum int
	for _, a := range corpus {
		s, ok := book.answer(a)
		if !ok {
			r.problem("no answer recorded for quality angle %v", a)
			fp.add("missing")
			continue
		}
		seq, err := gates.Parse(s)
		if err != nil {
			return err
		}
		fp.add(s)
		tSum += seq.TCount()
		cSum += seq.CliffordCount()
	}
	r.setQuality(tSum, cSum, len(corpus))
	r.outputsSHA = fp.sum()
	return nil
}

// seqBook interns every distinct (angle, sequence) answer the cluster
// returned, so each is verified once after the timed phases, and notices
// an angle answered with two different sequences.
type seqBook struct {
	mu    sync.Mutex
	ids   map[seqKey]int32
	keys  []seqKey
	first map[uint64]string // angle bits → first sequence seen
	split []float64         // angles answered inconsistently
}

type seqKey struct {
	angle float64
	seq   string
}

func newSeqBook() *seqBook {
	return &seqBook{ids: map[seqKey]int32{}, first: map[uint64]string{}}
}

func (b *seqBook) add(angle float64, seq string) int32 {
	k := seqKey{angle, seq}
	b.mu.Lock()
	defer b.mu.Unlock()
	if id, ok := b.ids[k]; ok {
		return id
	}
	id := int32(len(b.keys))
	b.ids[k] = id
	b.keys = append(b.keys, k)
	bits := math.Float64bits(angle)
	if s, ok := b.first[bits]; !ok {
		b.first[bits] = seq
	} else if s != seq {
		b.split = append(b.split, angle)
	}
	return id
}

func (b *seqBook) answer(angle float64) (string, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.first[math.Float64bits(angle)]
	return s, ok
}

// verify parses and multiplies out every distinct answer against the Rz
// the benchmark asked for, returning the IDs that failed.
func (b *seqBook) verify(r *run) map[int32]bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	bad := map[int32]bool{}
	for id, k := range b.keys {
		seq, err := gates.Parse(k.seq)
		if err != nil || k.seq == "" {
			bad[int32(id)] = true
			r.problem("rz(%v): unparsable answer %q", k.angle, k.seq)
			continue
		}
		if d, ok := checkSeq(qmat.Rz(k.angle), seq, serveEps); !ok {
			bad[int32(id)] = true
			r.problem("rz(%v): answer is %.6g from the target, beyond ε=%g", k.angle, d, serveEps)
		}
	}
	for _, a := range b.split {
		r.problem("rz(%v) was answered with two different sequences", a)
	}
	r.note("verified %d distinct answers, %d failed", len(b.keys), len(bad))
	return bad
}

// sendTiming is one open-loop request: when it was due, sent and done.
type sendTiming struct{ due, sent, done time.Time }

// openLoop issues n requests, request i due interval·i after the start,
// each on its own goroutine, so a slow reply never delays a later send and
// the queue is free to grow — independent users, not callers waiting on
// each other. It returns once every sent request has finished; after ctx
// ends it sends no more and the result holds only the requests sent.
func openLoop(ctx context.Context, n int, interval time.Duration, do func(ctx context.Context, i int)) []sendTiming {
	ts := make([]sendTiming, n)
	var wg sync.WaitGroup
	timer := time.NewTimer(0)
	defer timer.Stop()
	start := time.Now()
	sent := 0
send:
	for ; sent < n; sent++ {
		due := start.Add(time.Duration(sent) * interval)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break send
			}
		}
		ts[sent].due, ts[sent].sent = due, time.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			do(ctx, i)
			ts[i].done = time.Now()
		}(sent)
	}
	wg.Wait()
	return ts[:sent]
}
