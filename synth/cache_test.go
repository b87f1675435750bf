package synth

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"repro/circuit"
	"repro/internal/gates"
)

func rzOp(theta float64) circuit.Op {
	return circuit.Op{G: circuit.RZ, Q: [2]int{0, -1}, P: [3]float64{theta}}
}

// TestCacheHitAccounting: Get counts hits and misses exactly.
func TestCacheHitAccounting(t *testing.T) {
	c := NewCache(8)
	k := KeyOf(rzOp(0.7), "t", 1e-3, 0)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, Entry{Seq: gates.Sequence{gates.T}, Err: 0.001})
	for i := 0; i < 3; i++ {
		if _, ok := c.Get(k); !ok {
			t.Fatal("miss after Put")
		}
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("stats %+v, want 3 hits / 1 miss / size 1", st)
	}
	if got := st.HitRate(); got != 0.75 {
		t.Fatalf("hit rate %v, want 0.75", got)
	}
}

// TestCacheKeyScoping: same angle under different scope, epsilon, or
// config must not collide; equivalent wrapped angles must.
func TestCacheKeyScoping(t *testing.T) {
	base := KeyOf(rzOp(0.7), "trasyn", 1e-3, 1)
	if KeyOf(rzOp(0.7), "gridsynth", 1e-3, 1) == base {
		t.Fatal("keys collide across backends")
	}
	if KeyOf(rzOp(0.7), "trasyn", 1e-4, 1) == base {
		t.Fatal("keys collide across epsilons")
	}
	if KeyOf(rzOp(0.7), "trasyn", 1e-3, 2) == base {
		t.Fatal("keys collide across configs")
	}
	if KeyOf(rzOp(0.7+16*3.141592653589793/4), "trasyn", 1e-3, 1) != base {
		t.Fatal("4π-equivalent angles do not share a key")
	}
}

// TestCacheCfgScoping: the packed config must separate entries whose
// synthesis output differs — base seed and time budget included — while
// treating a nil seed as DefaultSeed.
func TestCacheCfgScoping(t *testing.T) {
	base := Request{}.cacheCfg()
	if (Request{Seed: Seed(7)}).cacheCfg() == (Request{Seed: Seed(9)}).cacheCfg() {
		t.Fatal("base seed not part of the cache config")
	}
	if (Request{Seed: Seed(DefaultSeed)}).cacheCfg() != base {
		t.Fatal("nil seed and explicit DefaultSeed should share entries")
	}
	if (Request{Timeout: time.Second}).cacheCfg() == base {
		t.Fatal("timeout not part of the cache config")
	}
	if (Request{Beam: true}).cacheCfg() == base {
		t.Fatal("beam flag not part of the cache config")
	}
}

// TestCacheEviction: the cache is bounded, evicting least-recently-used.
func TestCacheEviction(t *testing.T) {
	c := NewCache(2)
	k := func(i int) Key { return KeyOf(rzOp(float64(i)*0.1+0.05), "t", 0, 0) }
	c.Put(k(1), Entry{})
	c.Put(k(2), Entry{})
	c.Get(k(1)) // refresh 1 → 2 is now LRU
	c.Put(k(3), Entry{})
	if c.Len() != 2 {
		t.Fatalf("cache grew past capacity: %d", c.Len())
	}
	if _, ok := c.Get(k(2)); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.Get(k(1)); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := c.Get(k(3)); !ok {
		t.Fatal("newest entry missing")
	}
}

// TestCacheShardedBound: a sharded cache distributes entries yet never
// exceeds its total capacity, and the invariant holds: Hits+Misses counts
// exactly the Get calls made.
func TestCacheShardedBound(t *testing.T) {
	c := NewCacheSharded(64, 8)
	if c.Shards() != 8 || c.Cap() != 64 {
		t.Fatalf("want 8 shards / cap 64, got %d / %d", c.Shards(), c.Cap())
	}
	lookups := 0
	for i := 0; i < 500; i++ {
		k := KeyOf(rzOp(float64(i)*0.013+0.004), "t", 1e-3, 0)
		c.Get(k)
		lookups++
		c.Put(k, Entry{Seq: gates.Sequence{gates.T}})
	}
	if c.Len() > 64 {
		t.Fatalf("sharded cache exceeded capacity: %d > 64", c.Len())
	}
	st := c.Stats()
	if st.Hits+st.Misses != int64(lookups) {
		t.Fatalf("invariant broken: %d hits + %d misses != %d lookups", st.Hits, st.Misses, lookups)
	}
	// NewCache auto-shards large capacities and keeps small ones on one
	// shard (exact LRU).
	if got := NewCache(0).Shards(); got != DefaultCacheShards {
		t.Fatalf("default cache has %d shards, want %d", got, DefaultCacheShards)
	}
	if got := NewCache(32).Shards(); got != 1 {
		t.Fatalf("small cache has %d shards, want 1", got)
	}
}

// TestCacheConcurrent: concurrent Get/Put must be race-free (run under
// -race in CI) and never exceed the bound.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := KeyOf(rzOp(float64(i%48)*0.07+0.01), "s", 1e-3, 0)
				if _, ok := c.Get(k); !ok {
					c.Put(k, Entry{Seq: gates.Sequence{gates.T}, Err: 0.001})
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() > 32 {
		t.Fatalf("cache exceeded bound: %d", c.Len())
	}
	if st := c.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("degenerate accounting: %+v", st)
	}
}

// TestCachePeerTier: the SetPeer hook pair. A local miss consults the
// peer lookup — a peer hit counts as a hit (the Hits+Misses==lookups
// invariant survives the peer tier) and lands in the local cache without
// re-publishing; a Put of locally produced entries notifies the fill
// hook; LoadSnapshot never does.
func TestCachePeerTier(t *testing.T) {
	c := NewCache(8)
	remote := map[Key]Entry{}
	var fills []Key
	c.SetPeer(
		func(_ context.Context, k Key) (Entry, bool) { e, ok := remote[k]; return e, ok },
		func(_ context.Context, k Key, e Entry) { fills = append(fills, k) },
	)

	kRemote := KeyOf(rzOp(0.7), "t", 1e-3, 0)
	kLocal := KeyOf(rzOp(0.9), "t", 1e-3, 0)
	kMiss := KeyOf(rzOp(1.1), "t", 1e-3, 0)
	remote[kRemote] = Entry{Seq: gates.Sequence{gates.T}, Err: 0.001}

	// Peer hit: counted as a hit, no fill notification (peer-served
	// entries must not echo back to the owner), and now cached locally.
	if _, ok := c.Get(kRemote); !ok {
		t.Fatal("peer-held key missed")
	}
	if len(fills) != 0 {
		t.Fatalf("peer hit triggered %d fill notifications, want 0", len(fills))
	}
	delete(remote, kRemote)
	if _, ok := c.Get(kRemote); !ok {
		t.Fatal("peer-served entry was not cached locally")
	}

	// Peer miss: counted as a miss.
	if _, ok := c.Get(kMiss); ok {
		t.Fatal("hit on a key neither tier holds")
	}

	// Put publishes through the fill hook exactly once; LoadSnapshot is
	// the no-publish path (snapshot loads, peer-pushed entries).
	c.Put(kLocal, Entry{Seq: gates.Sequence{gates.T}, Err: 0.001})
	if len(fills) != 1 || fills[0] != kLocal {
		t.Fatalf("fills after Put = %v, want [%v]", fills, kLocal)
	}
	var push bytes.Buffer
	if err := WriteSnapshot(&push, []Record{NewRecord(kMiss, Entry{Seq: gates.Sequence{gates.T}, Err: 0.001})}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadSnapshot(&push); err != nil {
		t.Fatal(err)
	}
	if len(fills) != 1 {
		t.Fatalf("LoadSnapshot published through the fill hook: %v", fills)
	}

	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 2 hits / 1 miss (peer hit counts as hit)", st)
	}

	// Range sees every live entry.
	seen := 0
	c.Range(func(Key, Entry) bool { seen++; return true })
	if seen != 3 {
		t.Fatalf("Range visited %d entries, want 3", seen)
	}

	// Hooks detach cleanly.
	c.SetPeer(nil, nil)
	if _, ok := c.Get(KeyOf(rzOp(1.3), "t", 1e-3, 0)); ok {
		t.Fatal("hit after detaching peer hooks")
	}
}
