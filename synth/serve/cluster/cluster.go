// Package cluster turns N synthd processes into one consistent-hash
// cache cluster — the distributed form of the paper's amortization
// argument. Synthesized sequences are pure functions of their quantized
// (angle, ε, backend-config) cache key, so the cluster never needs
// invalidation or consensus: every node derives key ownership from the
// same static peer list via a virtual-node hash ring (Ring), misses do a
// single-hop lookup to the owner before synthesizing locally, fresh
// syntheses are pushed to the owner so later lookups from any node find
// them, and a joining node warm-seeds by streaming its ring successor's
// snapshot instead of starting cold.
//
// The package deliberately has no transport of its own beyond four
// internal HTTP endpoints a Node contributes under /v1/peer/ (mounted by
// synth/serve next to the public API):
//
//	GET /v1/peer/cache?gate=&a=&b=&c=&eps=&cfg=&scope=   one-key lookup
//	PUT /v1/peer/cache                                    owner fill push
//	GET /v1/peer/snapshot                                 full snapshot stream
//	GET /v1/peer/stats                                    node statistics (opaque JSON)
//
// Entries cross the wire in one form, synth.Record: a lookup answers
// with one, a push is a one-record snapshot, and a seed stream is a full
// snapshot. Every one of them reaches the cache through Record.Decode.
//
// The stats endpoint serves whatever payload the mounting layer provides
// (SetStatsProvider) — the cluster only moves the bytes, so the peer
// protocol stays agnostic of the statistics schema. PeerStats fans the
// GET out to every peer for the federated /v1/stats?cluster=1 view.
//
// A node that cannot reach a peer degrades to local synthesis — a dead
// node costs its share of cache affinity, never availability. A
// per-peer circuit breaker (BreakerConfig) makes that degradation
// cheap: after Threshold consecutive failures the peer's breaker opens
// and every outbound call to it is skipped in microseconds instead of
// burning the lookup timeout, until a half-open probe after a jittered
// cooldown confirms recovery.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/circuit"
	"repro/synth"
	"repro/synth/fault"
	"repro/synth/trace"
)

// DefaultLookupTimeout bounds one peer cache lookup. It is deliberately
// tight: a peer hit saves a synthesis (~100µs to minutes), but a peer
// that cannot answer quickly must not stall the request — local
// synthesis is always available.
const DefaultLookupTimeout = 250 * time.Millisecond

// DefaultPushTimeout bounds one asynchronous owner fill push.
const DefaultPushTimeout = 2 * time.Second

// Config describes this node's place in a static cluster.
type Config struct {
	// SelfID is this node's ID on the ring. Required.
	SelfID string
	// Peers maps every OTHER member's ID to its base URL
	// (e.g. "b" → "http://10.0.0.2:8077"). May be empty: a one-node
	// cluster is valid and behaves like plain synthd.
	Peers map[string]string
	// VNodes is the virtual-node count per member (0 = DefaultVNodes).
	VNodes int
	// LookupTimeout bounds a peer cache lookup (0 = DefaultLookupTimeout);
	// PushTimeout bounds an owner fill push (0 = DefaultPushTimeout).
	LookupTimeout time.Duration
	PushTimeout   time.Duration
	// Client overrides the HTTP client used for peer calls (tests inject
	// httptest transports). Default: a fresh http.Client; timeouts come
	// from per-call contexts.
	Client *http.Client
	// Tracer, when set, records a remote trace fragment for every peer
	// request that arrives carrying a traceparent header, so a trace
	// started on one node can be stitched together from every node's
	// /debug/trace ring. Outbound peer calls propagate the header
	// regardless (they read the span from the caller's context).
	Tracer *trace.Tracer
	// Breaker tunes the per-peer circuit breakers that gate every
	// outbound peer call (lookups, fills, stats fan-out). The zero value
	// selects the defaults; Threshold < 0 disables breakers.
	Breaker BreakerConfig
	// Logger, when set, records breaker state transitions.
	Logger *slog.Logger
	// Fault, when set, is the node-level fault injector consulted at the
	// "peer:<id>:{lookup,push,stats}" sites before every outbound peer
	// call that has no injector on its context (detached fill pushes);
	// request-scoped injectors on the context take precedence. A
	// "peer:<id>*" wildcard rule covers all three operations.
	Fault *fault.Injector
}

// Stats is a point-in-time snapshot of a node's cluster counters.
type Stats struct {
	// PeerHits/PeerMisses/PeerErrors count single-hop owner lookups by
	// outcome (error includes timeouts and unreachable peers).
	PeerHits, PeerMisses, PeerErrors int64
	// Pushes counts owner fill pushes attempted; PushErrors the failures.
	Pushes, PushErrors int64
	// Seeded is the entry count loaded by the last Seed call.
	Seeded int64
	// BreakerTrips counts breaker open transitions across all peers;
	// BreakerSkips counts outbound calls skipped because a peer's
	// breaker was open (each skip is a fast local fall-through).
	BreakerTrips, BreakerSkips int64
}

// Node is one cluster member: the ring view, the peer HTTP client, and
// the hook pair it installs into the resident cache (Attach). Create
// with New, mount Handler under /v1/peer/, Attach the cache, and
// optionally Seed before serving.
type Node struct {
	selfID string
	ring   *Ring
	peers  map[string]string
	hc     *http.Client
	cfg    Config

	cache atomic.Pointer[synth.Cache]
	// statsProvider renders this node's statistics payload for
	// GET /v1/peer/stats (installed by the serving layer; nil = 503).
	statsProvider atomic.Pointer[func() ([]byte, error)]

	// breakers guards each peer with a circuit breaker (nil map entries
	// never exist; the map itself is empty when breakers are disabled).
	// Immutable after New.
	breakers map[string]*breaker

	peerHits, peerMisses, peerErrors atomic.Int64
	pushes, pushErrors               atomic.Int64
	seeded                           atomic.Int64
	breakerTrips, breakerSkips       atomic.Int64
	// pending tracks in-flight async fill pushes; Flush waits for them
	// (tests and graceful shutdown).
	pending sync.WaitGroup
}

// New validates cfg and builds the node's ring view (self + peers).
func New(cfg Config) (*Node, error) {
	if cfg.SelfID == "" {
		return nil, fmt.Errorf("cluster: SelfID is required")
	}
	ids := []string{cfg.SelfID}
	peers := make(map[string]string, len(cfg.Peers))
	for id, base := range cfg.Peers {
		if id == cfg.SelfID {
			// Tolerate peer lists that include self (the natural spelling
			// when every node gets the same -peers flag).
			continue
		}
		if base == "" {
			return nil, fmt.Errorf("cluster: peer %q has no URL", id)
		}
		if _, err := url.Parse(base); err != nil {
			return nil, fmt.Errorf("cluster: peer %q URL: %w", id, err)
		}
		peers[id] = base
		ids = append(ids, id)
	}
	ring, err := NewRing(cfg.VNodes, ids...)
	if err != nil {
		return nil, err
	}
	if cfg.LookupTimeout <= 0 {
		cfg.LookupTimeout = DefaultLookupTimeout
	}
	if cfg.PushTimeout <= 0 {
		cfg.PushTimeout = DefaultPushTimeout
	}
	hc := cfg.Client
	if hc == nil {
		hc = &http.Client{}
	}
	n := &Node{selfID: cfg.SelfID, ring: ring, peers: peers, hc: hc, cfg: cfg}
	n.breakers = make(map[string]*breaker, len(peers))
	if cfg.Breaker.Threshold >= 0 {
		bcfg := cfg.Breaker.withDefaults()
		for id := range peers {
			n.breakers[id] = newBreaker(id, bcfg, n.breakerChanged)
		}
	}
	return n, nil
}

// breakerChanged observes every breaker transition: trips feed the
// counter and every edge is logged, so "peer b went dark at 14:02 and
// recovered at 14:07" is reconstructable from one node's log.
func (n *Node) breakerChanged(peer string, from, to breakerState) {
	if to == stateOpen {
		n.breakerTrips.Add(1)
	}
	if n.cfg.Logger != nil {
		n.cfg.Logger.Warn("peer breaker transition",
			"peer", peer, "from", from.String(), "to", to.String())
	}
}

// SelfID returns this node's ring ID.
func (n *Node) SelfID() string { return n.selfID }

// Ring returns the node's (immutable) ring view.
func (n *Node) Ring() *Ring { return n.ring }

// Stats snapshots the cluster counters.
func (n *Node) Stats() Stats {
	return Stats{
		PeerHits:   n.peerHits.Load(),
		PeerMisses: n.peerMisses.Load(),
		PeerErrors: n.peerErrors.Load(),
		Pushes:     n.pushes.Load(),
		PushErrors: n.pushErrors.Load(),
		Seeded:     n.seeded.Load(),

		BreakerTrips: n.breakerTrips.Load(),
		BreakerSkips: n.breakerSkips.Load(),
	}
}

// BreakerStates snapshots every peer breaker, sorted by peer ID — the
// /healthz "breakers" field and the per-peer state gauge on /metrics.
func (n *Node) BreakerStates() []PeerBreaker {
	if len(n.breakers) == 0 {
		return nil
	}
	now := time.Now()
	out := make([]PeerBreaker, 0, len(n.breakers))
	for _, br := range n.breakers {
		out = append(out, br.snapshot(now))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// inject consults the fault injector for an outbound peer call: a
// request-scoped injector on ctx wins; otherwise the node-level one
// from Config.Fault (reached by detached push goroutines, whose fresh
// contexts carry nothing). Nil-safe on both.
func (n *Node) inject(ctx context.Context, site string) error {
	if in := fault.FromContext(ctx); in != nil {
		return in.At(ctx, site)
	}
	return n.cfg.Fault.At(ctx, site)
}

// allowPeer is the breaker gate before an outbound call to peer id;
// a skip is counted (it stands for a sub-millisecond local
// fall-through where a timeout would have been).
func (n *Node) allowPeer(id string) (*breaker, bool) {
	br := n.breakers[id]
	if br == nil {
		return nil, true
	}
	if !br.Allow(time.Now()) {
		n.breakerSkips.Add(1)
		return br, false
	}
	return br, true
}

// errBreakerOpen marks a call skipped because the peer's breaker is
// open: a sub-millisecond local fall-through where a timeout would have
// been. It is neither a peer error nor an attempted push.
var errBreakerOpen = errors.New("breaker open")

// errNotFound is a peer's 404: a healthy answer (the peer is up, it just
// doesn't have what was asked for), so it counts for the breaker.
var errNotFound = errors.New("not found")

// call is the one outbound peer request — lookup, owner push and stats
// fan-out alike. It passes id's breaker gate (a skip is counted and
// returns errBreakerOpen), bounds the call by timeout, consults the
// "peer:<id>:<op>" fault site inside that bound (so injected latency
// races the real deadline, exactly as a slow peer would), sends the
// request with sp's traceparent, and hands a 2xx answer's body to read
// (when non-nil). The breaker hears one outcome per call that reached the
// gate: success for a 2xx whose body read cleanly or a 404; failure for
// everything else. Failures are also recorded on sp.
func (n *Node) call(ctx context.Context, sp *trace.Span, id, op string, timeout time.Duration, method, path string, body []byte, read func(io.Reader) error) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, n.peers[id]+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if h := sp.HeaderValue(); h != "" {
		req.Header.Set(trace.Header, h)
	}
	br, ok := n.allowPeer(id)
	if !ok {
		sp.SetAttr("breaker", "open")
		return errBreakerOpen
	}
	err = n.send(req, id, op, read)
	healthy := err == nil || errors.Is(err, errNotFound)
	if br != nil {
		if healthy {
			br.Success()
		} else {
			br.Failure(time.Now())
		}
	}
	if !healthy {
		sp.SetAttr("error", err.Error())
	}
	return err
}

// send is call past the breaker gate: the fault site, the round trip and
// the status check.
func (n *Node) send(req *http.Request, id, op string, read func(io.Reader) error) error {
	if err := n.inject(req.Context(), "peer:"+id+":"+op); err != nil {
		return err
	}
	res, err := n.hc.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	switch {
	case res.StatusCode == http.StatusNotFound:
		return errNotFound
	case res.StatusCode < 200 || res.StatusCode > 299:
		return fmt.Errorf("HTTP %d", res.StatusCode)
	case read != nil:
		return read(res.Body)
	}
	return nil
}

// KeysOwned counts the live entries in the attached cache whose ring
// owner is this node — the synthd_ring_keys_owned gauge.
func (n *Node) KeysOwned() int {
	c := n.cache.Load()
	if c == nil {
		return 0
	}
	owned := 0
	c.Range(func(k synth.Key, _ synth.Entry) bool {
		if n.ring.OwnerOf(k) == n.selfID {
			owned++
		}
		return true
	})
	return owned
}

// Attach wires the node into c: local misses on keys another node owns
// do a single-hop peer lookup there, and fresh local syntheses of such
// keys are pushed (asynchronously) to the owner. Call once, before
// serving traffic.
func (n *Node) Attach(c *synth.Cache) {
	n.cache.Store(c)
	if len(n.peers) == 0 {
		return // one-node cluster: nothing to look up or push to
	}
	c.SetPeer(n.lookup, n.fill)
}

// Flush waits for every in-flight fill push to settle — the barrier
// tests (and a draining daemon) use to make "wave 2 sees wave 1" exact.
func (n *Node) Flush() { n.pending.Wait() }

// SetStatsProvider installs the function that renders this node's
// statistics payload for GET /v1/peer/stats. The cluster treats the
// bytes as opaque JSON — the serving layer owns the schema on both ends
// (it provides here and decodes what PeerStats fetched).
func (n *Node) SetStatsProvider(fn func() ([]byte, error)) {
	n.statsProvider.Store(&fn)
}

// PeerStat is one peer's answer to a stats fan-out: its raw payload, or
// the error that kept it from answering. Exactly one field is set.
type PeerStat struct {
	Raw json.RawMessage
	Err error
}

// PeerStats fans GET /v1/peer/stats out to every peer concurrently and
// returns each answer by peer ID. An unreachable peer contributes its
// error, never blocks the map: a dead node degrades the fleet view by
// its own share and nothing else. Each call is bounded by the push
// timeout (stats are heavier than a one-key lookup but must not hang a
// dashboard).
func (n *Node) PeerStats(ctx context.Context) map[string]PeerStat {
	out := make(map[string]PeerStat, len(n.peers))
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for id := range n.peers {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			var raw json.RawMessage
			err := n.call(ctx, nil, id, "stats", n.cfg.PushTimeout, http.MethodGet, "/v1/peer/stats", nil,
				func(r io.Reader) (err error) {
					raw, err = io.ReadAll(io.LimitReader(r, 16<<20))
					return err
				})
			ps := PeerStat{Raw: raw}
			if err != nil {
				ps = PeerStat{Err: fmt.Errorf("cluster: peer %s stats: %w", id, err)}
			}
			mu.Lock()
			out[id] = ps
			mu.Unlock()
		}(id)
	}
	wg.Wait()
	return out
}

// lookup is the cache's miss hook: one GET to the key's owner, whose
// answer is a Record decoded like any other entry from outside the
// process. It runs under the triggering request's context — cancelled
// with it, and traced as a "peer.lookup" span whose identity travels to
// the owner in the traceparent header (the owner records the matching
// "peer.serve" fragment in its own ring). A skip by the owner's open
// breaker falls through to local synthesis without paying the lookup
// timeout, and is not a peer error — the error already happened when the
// breaker tripped.
func (n *Node) lookup(ctx context.Context, k synth.Key) (synth.Entry, bool) {
	owner := n.ring.OwnerOf(k)
	if owner == n.selfID {
		return synth.Entry{}, false
	}
	sp := trace.FromContext(ctx).Child("peer.lookup")
	defer sp.End()
	sp.SetAttr("peer", owner)
	var e synth.Entry
	err := n.call(ctx, sp, owner, "lookup", n.cfg.LookupTimeout, http.MethodGet, "/v1/peer/cache?"+keyQuery(k), nil,
		func(r io.Reader) error {
			var rec synth.Record
			if err := json.NewDecoder(r).Decode(&rec); err != nil {
				return err
			}
			got, ent, err := rec.Decode()
			if err == nil && got != k {
				err = fmt.Errorf("cluster: peer %s answered for another key", owner)
			}
			e = ent
			return err
		})
	switch {
	case err == nil:
		n.peerHits.Add(1)
	case errors.Is(err, errNotFound):
		n.peerMisses.Add(1)
	case errors.Is(err, errBreakerOpen):
	default:
		n.peerErrors.Add(1)
	}
	sp.SetAttr("hit", err == nil)
	return e, err == nil
}

// fill is the cache's put hook: a fresh local synthesis of a key some
// other node owns is pushed there asynchronously, as a one-record
// snapshot the owner loads like any other, so the owner answers every
// future cluster-wide lookup for it. Push failures are counted and
// dropped — the entry is still cached locally, and determinism means any
// node can always recompute it; for the same reason a push the owner's
// open breaker skips is not attempted at all. The push is traced as a
// "peer.push" child of the span in ctx; because it is asynchronous the
// span may end after the request's root was reported, which the trace
// ring tolerates (late child ends update the retained tree). The HTTP
// call itself deliberately does NOT use the request's context — the push
// must survive the request completing.
func (n *Node) fill(ctx context.Context, k synth.Key, e synth.Entry) {
	owner := n.ring.OwnerOf(k)
	if owner == n.selfID {
		return
	}
	sp := trace.FromContext(ctx).Child("peer.push")
	sp.SetAttr("peer", owner)
	n.pending.Add(1)
	go func() {
		defer n.pending.Done()
		defer sp.End()
		var body bytes.Buffer
		err := synth.WriteSnapshot(&body, []synth.Record{synth.NewRecord(k, e)})
		if err == nil {
			err = n.call(context.Background(), sp, owner, "push", n.cfg.PushTimeout, http.MethodPut, "/v1/peer/cache", body.Bytes(), nil)
		}
		if !errors.Is(err, errBreakerOpen) {
			n.pushes.Add(1)
			if err != nil {
				n.pushErrors.Add(1)
			}
		}
	}()
}

// remoteFragment opens a trace fragment for an inbound peer request
// carrying a traceparent header (nil otherwise, and all span use
// no-ops). The fragment lands in this node's ring under the propagated
// trace ID, tagged with this node's ID so stitched exports name it.
func (n *Node) remoteFragment(r *http.Request, name string) *trace.Span {
	if n.cfg.Tracer == nil {
		return nil
	}
	tid, sid, ok := trace.ParseHeaderValue(r.Header.Get(trace.Header))
	if !ok {
		return nil
	}
	sp := n.cfg.Tracer.StartRemote(tid, sid, name)
	sp.SetAttr("node", n.selfID)
	return sp
}

// Seed streams the ring successor's snapshot into the attached cache —
// the warm join: the successor owned most of this node's arcs before it
// joined, so its snapshot contains the hot entries this node is about
// to be asked for. Returns the entry count loaded. A one-node cluster
// (or an unreachable donor) is an error the caller typically logs and
// survives: a cold start is always safe.
func (n *Node) Seed(ctx context.Context) (int, error) {
	c := n.cache.Load()
	if c == nil {
		return 0, fmt.Errorf("cluster: Seed before Attach")
	}
	donor := n.ring.Successor(n.selfID)
	if donor == n.selfID {
		return 0, fmt.Errorf("cluster: no peer to seed from")
	}
	base := n.peers[donor]
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/peer/snapshot", nil)
	if err != nil {
		return 0, err
	}
	res, err := n.hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("cluster: seeding from %s: %w", donor, err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("cluster: seeding from %s: HTTP %d", donor, res.StatusCode)
	}
	loaded, err := c.LoadSnapshot(res.Body)
	if err != nil {
		return 0, fmt.Errorf("cluster: seeding from %s: %w", donor, err)
	}
	n.seeded.Store(int64(loaded))
	return loaded, nil
}

// Handler returns the internal peer endpoint tree, to be mounted under
// /v1/peer/. These endpoints are cluster-internal: serve mounts them
// outside admission control and tenant quotas, and deployments should
// not expose them on public load balancers.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/peer/cache", n.handleGet)
	mux.HandleFunc("PUT /v1/peer/cache", n.handlePut)
	mux.HandleFunc("GET /v1/peer/snapshot", n.handleSnapshot)
	mux.HandleFunc("GET /v1/peer/stats", n.handleStats)
	return mux
}

// handleStats serves the mounting layer's statistics payload. The bytes
// are opaque here; 503 until a provider is installed.
func (n *Node) handleStats(w http.ResponseWriter, r *http.Request) {
	fn := n.statsProvider.Load()
	if fn == nil {
		http.Error(w, "no stats provider attached", http.StatusServiceUnavailable)
		return
	}
	body, err := (*fn)()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// handleGet answers a one-key peer lookup from the local cache only (no
// recursion: a miss here is a miss, the asking node synthesizes). Peek
// semantics — a remote probe neither counts in this node's hit/miss
// accounting nor refreshes recency, so cluster traffic cannot distort
// local LRU or stats.
func (n *Node) handleGet(w http.ResponseWriter, r *http.Request) {
	sp := n.remoteFragment(r, "peer.serve.get")
	defer sp.End()
	c := n.cache.Load()
	if c == nil {
		http.Error(w, "no cache attached", http.StatusServiceUnavailable)
		return
	}
	k, err := keyFromQuery(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	e, ok := c.Peek(k)
	sp.SetAttr("hit", ok)
	if !ok {
		http.Error(w, "miss", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(synth.NewRecord(k, e))
}

// handlePut accepts an owner fill push: a snapshot (one record, as fill
// sends it) loaded quietly, so it never bounces back to the sender. A
// body LoadSnapshot refuses is a 400 and stores nothing.
func (n *Node) handlePut(w http.ResponseWriter, r *http.Request) {
	sp := n.remoteFragment(r, "peer.serve.put")
	defer sp.End()
	c := n.cache.Load()
	if c == nil {
		http.Error(w, "no cache attached", http.StatusServiceUnavailable)
		return
	}
	if _, err := c.LoadSnapshot(http.MaxBytesReader(w, r.Body, 1<<20)); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleSnapshot streams the local cache's versioned-JSON snapshot — the
// same format the daemon persists, reused as the seeding wire format.
func (n *Node) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	c := n.cache.Load()
	if c == nil {
		http.Error(w, "no cache attached", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := c.Snapshot(w); err != nil {
		// Headers are gone; all we can do is log-by-status via trailer-less
		// abort. Snapshot only fails on writer errors anyway.
		return
	}
}

// keyQuery encodes k as URL query parameters.
func keyQuery(k synth.Key) string {
	v := url.Values{}
	v.Set("gate", strconv.FormatUint(uint64(k.Gate), 10))
	v.Set("a", strconv.FormatInt(k.A, 10))
	v.Set("b", strconv.FormatInt(k.B, 10))
	v.Set("c", strconv.FormatInt(k.C, 10))
	v.Set("eps", strconv.FormatInt(k.Eps, 10))
	v.Set("cfg", strconv.FormatInt(k.Cfg, 10))
	v.Set("scope", k.Scope)
	return v.Encode()
}

// keyFromQuery decodes keyQuery's encoding.
func keyFromQuery(v url.Values) (synth.Key, error) {
	var k synth.Key
	gate, err := strconv.ParseUint(v.Get("gate"), 10, 8)
	if err != nil {
		return k, fmt.Errorf("bad gate: %v", err)
	}
	k.Gate = circuit.GateType(gate)
	for _, f := range []struct {
		name string
		dst  *int64
	}{{"a", &k.A}, {"b", &k.B}, {"c", &k.C}, {"eps", &k.Eps}, {"cfg", &k.Cfg}} {
		x, err := strconv.ParseInt(v.Get(f.name), 10, 64)
		if err != nil {
			return k, fmt.Errorf("bad %s: %v", f.name, err)
		}
		*f.dst = x
	}
	k.Scope = v.Get("scope")
	return k, nil
}
