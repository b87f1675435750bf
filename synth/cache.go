package synth

import (
	"container/list"
	"context"
	"math"
	"sync"
	"sync/atomic"

	"repro/circuit"
	"repro/internal/gates"
	"repro/internal/qmat"
)

// DefaultCacheSize bounds a Cache when NewCache is given no capacity.
const DefaultCacheSize = 4096

// DefaultCacheShards is the shard count NewCache selects for caches large
// enough to split (see minShardCap); NewCacheSharded overrides it.
const DefaultCacheShards = 16

// minShardCap is the smallest per-shard capacity worth sharding for: below
// it a split cache would evict so early that the LRU working set breaks up,
// so NewCache keeps small caches on a single shard (which also preserves
// exact global LRU order for them).
const minShardCap = 64

// Key identifies one synthesis job up to angle quantization. Two requests
// with the same Key are interchangeable: same rotation (angles wrapped to
// [0, 4π) and quantized at 1e-12), same scope (backend name or caller
// namespace), same epsilon, and same packed backend knobs — so a shared
// cache never serves a loose approximation to a tight request or mixes
// backends.
type Key struct {
	Gate    circuit.GateType
	A, B, C int64
	Eps     int64
	Cfg     int64
	Scope   string
}

// quantizeAngle wraps x to [0, 4π) (U3 angles are 2π-periodic up to phase;
// 4π is safe for every convention) and quantizes at 1e-12.
func quantizeAngle(x float64) int64 {
	x = math.Mod(x, 4*math.Pi)
	if x < 0 {
		x += 4 * math.Pi
	}
	return int64(math.Round(x * 1e12))
}

// KeyOf builds the cache key for a rotation op under a scope and epsilon.
func KeyOf(op circuit.Op, scope string, eps float64, cfg int64) Key {
	return Key{
		Gate:  op.G,
		A:     quantizeAngle(op.P[0]),
		B:     quantizeAngle(op.P[1]),
		C:     quantizeAngle(op.P[2]),
		Eps:   int64(math.Round(eps * 1e15)),
		Cfg:   cfg,
		Scope: scope,
	}
}

// KeyOfTarget builds the cache key for a raw unitary via its ZYZ Euler
// angles, so matrix-level batch jobs share entries with equivalent U3 ops.
func KeyOfTarget(u qmat.M2, scope string, eps float64, cfg int64) Key {
	theta, phi, lambda := qmat.ZYZAngles(u)
	return KeyOf(circuit.Op{G: circuit.U3, P: [3]float64{theta, phi, lambda}}, scope, eps, cfg)
}

// KeyForTarget builds the exact key a Compiler with this request caches
// target under — KeyOfTarget with the request's config hash filled in.
// Ownership-aware callers (cluster chaos tests, load generators that
// route by ring owner) use it to predict where an entry will live.
func KeyForTarget(u qmat.M2, scope string, req Request) Key {
	return KeyOfTarget(u, scope, req.Epsilon, req.cacheCfg())
}

// cacheCfg hashes every Request knob that changes synthesis output —
// budget shape, sampler, time budget, and the base seed (per-op seeds are
// derived from the base seed and the key, so compilers with different base
// seeds must not serve each other's entries).
func (r Request) cacheCfg() int64 {
	d := r.withDefaults()
	h := fnv64(uint64(d.TBudget), uint64(d.Tensors), uint64(d.Samples),
		uint64(d.Timeout), uint64(r.seed()))
	if d.Beam {
		h ^= 1
	}
	return int64(h)
}

// fnv64 is FNV-1a over a list of 64-bit words.
func fnv64(vs ...uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	return h
}

// Entry is one cached synthesis outcome.
type Entry struct {
	Seq gates.Sequence
	Err float64 // realized unitary distance
	// Backend records which backend produced the entry (meaningful for
	// racing backends like "auto", whose winner varies per target).
	Backend string
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits, Misses int64
	Size, Cap    int
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is a bounded, concurrency-safe synthesis cache with LRU eviction,
// shared across batch jobs, pipeline runs and daemon requests. Internally the key space is split
// over independent LRU shards (each with its own lock), so concurrent
// lookups under different keys proceed without contending on one mutex;
// recency and eviction are per shard, a standard approximation of global
// LRU. Every Get counts a hit or a miss; Stats exposes the accounting, and
// Hits+Misses always equals the number of lookups performed.
type Cache struct {
	shards []*cacheShard
	mask   uint64 // len(shards)-1; shard count is a power of two
	cap    int
	// creditHits charges the key-less accounting path (creditHit) without
	// electing a shard for it.
	creditHits atomic.Int64
	// peer holds the optional second-tier hooks a cache cluster installs
	// (SetPeer): lookup fills local misses from a remote owner, fill
	// publishes fresh local syntheses to it.
	peer atomic.Pointer[peerHooks]
}

// peerHooks is the pair SetPeer installs. Both functions may be nil.
// Both receive the caller's context, so a hook that does network I/O
// (the cluster tier) can honor cancellation and propagate the request's
// trace span across the hop.
type peerHooks struct {
	lookup func(context.Context, Key) (Entry, bool)
	fill   func(context.Context, Key, Entry)
}

// SetPeer installs a second lookup tier behind this cache — the hook a
// consistent-hash cache cluster (synth/serve/cluster) uses to make N
// processes behave as one memo table. On a local miss, Get consults
// lookup (outside any shard lock; it may do network I/O) and, on a peer
// hit, stores the entry locally and counts the lookup as a hit — from the
// caller's perspective the cluster served it without synthesis. Every Put
// of a locally produced entry is reported to fill (also outside locks),
// so the cluster can publish it to the key's owning node; entries that
// arrived *from* the tier — peer hits, snapshot loads — are stored
// quietly and never re-published. Pass nils to detach. Install before
// serving traffic: SetPeer itself is safe for concurrent use, but
// lookups racing the swap may see either tier configuration. Hooks
// receive the context of the GetCtx/PutCtx call that triggered them
// (context.Background() for plain Get/Put), which carries cancellation
// and any trace span the request is under.
func (c *Cache) SetPeer(lookup func(context.Context, Key) (Entry, bool), fill func(context.Context, Key, Entry)) {
	if lookup == nil && fill == nil {
		c.peer.Store(nil)
		return
	}
	c.peer.Store(&peerHooks{lookup: lookup, fill: fill})
}

// KeyHash is the FNV-1a hash of k — the same value in-process shard
// election uses, exported so cluster-level routing (consistent-hash node
// ownership) distributes keys exactly the way the shards already do.
func KeyHash(k Key) uint64 { return keyHash(k) }

// cacheShard is one independently locked LRU region.
type cacheShard struct {
	mu           sync.Mutex
	cap          int
	ll           *list.List // front = most recent
	m            map[Key]*list.Element
	hits, misses int64
}

type cacheNode struct {
	k Key
	e Entry
}

// NewCache returns a cache bounded to capacity entries (<= 0 selects
// DefaultCacheSize), sharded DefaultCacheShards ways when the capacity
// leaves each shard at least minShardCap entries; smaller caches stay on a
// single shard and so keep exact global LRU order.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	shards := 1
	for shards < DefaultCacheShards && capacity/(shards*2) >= minShardCap {
		shards *= 2
	}
	return NewCacheSharded(capacity, shards)
}

// NewCacheSharded returns a cache bounded to capacity entries split over
// an explicit shard count — the tuning knob for high-concurrency services
// like synthd. The count is rounded up to a power of two and clamped to
// [1, capacity] so every shard holds at least one entry; capacity <= 0
// selects DefaultCacheSize. The total entry count never exceeds capacity.
func NewCacheSharded(capacity, shards int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity
	}
	n := 1
	for n < shards {
		n *= 2
	}
	if n > capacity {
		n /= 2
	}
	c := &Cache{shards: make([]*cacheShard, n), mask: uint64(n - 1), cap: capacity}
	base, rem := capacity/n, capacity%n
	for i := range c.shards {
		sc := base
		if i < rem {
			sc++
		}
		c.shards[i] = &cacheShard{cap: sc, ll: list.New(), m: map[Key]*list.Element{}}
	}
	return c
}

// Shards returns the shard count (for tuning reports and tests).
func (c *Cache) Shards() int { return len(c.shards) }

// shard elects the shard owning k.
func (c *Cache) shard(k Key) *cacheShard {
	return c.shards[keyHash(k)&c.mask]
}

// Get looks up k, counting a hit or miss and refreshing recency. When a
// peer tier is installed (SetPeer), a local miss consults it before being
// counted: a peer hit is stored locally and counted as a hit, so
// Hits+Misses still equals the lookups performed and a hit still means
// "served without synthesis".
func (c *Cache) Get(k Key) (Entry, bool) { return c.GetCtx(context.Background(), k) }

// GetCtx is Get under the caller's context: a peer lookup triggered by a
// local miss receives ctx, so it is cancelled with the request and its
// network hop lands under the request's trace span.
func (c *Cache) GetCtx(ctx context.Context, k Key) (Entry, bool) {
	s := c.shard(k)
	s.mu.Lock()
	if el, ok := s.m[k]; ok {
		s.hits++
		s.ll.MoveToFront(el)
		e := el.Value.(*cacheNode).e
		s.mu.Unlock()
		return e, true
	}
	p := c.peer.Load()
	if p == nil || p.lookup == nil {
		s.misses++
		s.mu.Unlock()
		return Entry{}, false
	}
	// The peer lookup does network I/O; it must run outside the shard
	// lock. Concurrent misses on one key may each ask the peer — a
	// bounded duplication the short lookup deadline keeps cheap.
	s.mu.Unlock()
	if e, ok := p.lookup(ctx, k); ok {
		c.putQuiet(k, e)
		s.mu.Lock()
		s.hits++
		s.mu.Unlock()
		return e, true
	}
	s.mu.Lock()
	s.misses++
	s.mu.Unlock()
	return Entry{}, false
}

// creditHit records a hit for a lookup served without touching the map —
// a job that reuses one in-flight synthesis for several ops charges the
// extra ops here.
func (c *Cache) creditHit() {
	c.creditHits.Add(1)
}

// Peek is Get without accounting, recency update, or peer consultation —
// the lookup a remote cluster probe uses, so cross-node traffic neither
// distorts local LRU order nor inflates the hit/miss counters.
func (c *Cache) Peek(k Key) (Entry, bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[k]; ok {
		return el.Value.(*cacheNode).e, true
	}
	return Entry{}, false
}

// Put stores k → e, evicting the owning shard's least-recently-used entry
// when that shard is full. The entry is treated as locally produced and
// reported to the peer fill hook when one is installed; use LoadSnapshot
// (or rely on Get's peer path) for entries that came from the tier.
func (c *Cache) Put(k Key, e Entry) { c.PutCtx(context.Background(), k, e) }

// PutCtx is Put under the caller's context, handed to the peer fill hook
// so a cluster push can be traced back to the request that produced the
// entry.
func (c *Cache) PutCtx(ctx context.Context, k Key, e Entry) {
	c.putQuiet(k, e)
	if p := c.peer.Load(); p != nil && p.fill != nil {
		p.fill(ctx, k, e)
	}
}

// putQuiet is Put without the peer fill notification — the insert path
// for entries that arrived from the peer tier or a snapshot.
func (c *Cache) putQuiet(k Key, e Entry) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[k]; ok {
		el.Value.(*cacheNode).e = e
		s.ll.MoveToFront(el)
		return
	}
	s.m[k] = s.ll.PushFront(&cacheNode{k: k, e: e})
	for len(s.m) > s.cap {
		last := s.ll.Back()
		s.ll.Remove(last)
		delete(s.m, last.Value.(*cacheNode).k)
	}
}

// Range calls f for every live entry until f returns false. Order is
// unspecified; recency is not refreshed and nothing is counted. One shard
// is locked at a time, so f must not call back into the cache, and
// entries inserted or evicted concurrently may or may not be seen.
func (c *Cache) Range(f func(Key, Entry) bool) {
	for _, s := range c.shards {
		s.mu.Lock()
		for el := s.ll.Front(); el != nil; el = el.Next() {
			n := el.Value.(*cacheNode)
			if !f(n.k, n.e) {
				s.mu.Unlock()
				return
			}
		}
		s.mu.Unlock()
	}
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Cap returns the total capacity bound.
func (c *Cache) Cap() int { return c.cap }

// Stats snapshots the counters, summing across shards. Shards are read one
// at a time, so a snapshot taken while lookups are in flight may straddle
// them; after the cache quiesces it is exact.
func (c *Cache) Stats() CacheStats {
	st := CacheStats{
		Hits: c.creditHits.Load(),
		Cap:  c.cap,
	}
	for _, s := range c.shards {
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Size += len(s.m)
		s.mu.Unlock()
	}
	return st
}
