package synth

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/gates"
)

// BenchmarkCacheParallel measures the mixed Get/Put throughput of the old
// single-lock layout (shards=1) against the sharded cache under growing
// goroutine counts — the contention profile of a synthd daemon serving
// concurrent compile requests. The workload is ~90% lookups over a
// working set that fits in the cache, the service steady state. Run it at
// several GOMAXPROCS values with
//
//	go test -run=NONE -bench=BenchmarkCacheParallel -cpu=2,8 ./synth/
//
// BENCH_cache.json holds earlier recordings as history.
func BenchmarkCacheParallel(b *testing.B) {
	const capacity = 4096
	const workingSet = 1024
	keys := make([]Key, workingSet)
	for i := range keys {
		keys[i] = KeyOf(rzOp(float64(i)*0.003+0.0005), "bench", 1e-3, 0)
	}
	entry := Entry{Seq: gates.Sequence{gates.H, gates.T, gates.S}, Err: 1e-4}

	for _, shards := range []int{1, 16} {
		for _, par := range []int{8, 64} {
			name := fmt.Sprintf("shards=%d/goroutines=%d", shards, par)
			b.Run(name, func(b *testing.B) {
				c := NewCacheSharded(capacity, shards)
				for _, k := range keys {
					c.Put(k, entry)
				}
				// SetParallelism multiplies GOMAXPROCS, so this yields at
				// least par goroutines — the 64-way point oversubscribes
				// the lock the way a request flood does.
				procs := runtime.GOMAXPROCS(0)
				b.SetParallelism((par + procs - 1) / procs)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					i := 0
					for pb.Next() {
						k := keys[i%workingSet]
						if i%10 == 9 {
							c.Put(k, entry)
						} else {
							c.Get(k)
						}
						i++
					}
				})
			})
		}
	}
}
