package main

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Host speed normalization.
//
// A shared 2-vCPU host does not run at one speed: the same loop takes
// anywhere from 1x to 4x its best time, in phases of a fraction of a
// second to several seconds, as neighbours load the machine. Raw wall
// time then measures the neighbours as much as the program. So every
// closed-loop op — one that runs alone, then the next — is timed between
// two speed probes, a fixed reference loop run just before and just after
// it, and scaled by refNominal over the probes' mean: the time the op
// would have taken with the host at the reference speed. An op on one
// goroutine is bracketed by one probe; a compile spread over the worker
// pool by a probe on every processor at once, since the two vCPUs slow
// unevenly and more when both are busy. Across ten seeds this cut the
// spread of u3_single's median from 18% to 2%, of qaoa_auto's from 21% to
// 8% and of circuits_gridsynth's from 9% to 4%.
//
// serve_mix's requests overlap, so no probe can sit between them, and
// their latency is mostly waiting — loopback, wakeups, the one connection
// — which does not scale with the reference loop: scaling it tripled the
// spread. It reports request latency as measured.
//
// The probes cannot see the hypervisor stopping a vCPU to run another
// guest: each probe keeps the fastest of its loops. So every workload's
// latency median is also scaled by one minus the share of busy CPU time
// stolen over its measured window (windowStats.unstolen). Ten runs of
// circuits_gridsynth, four of them at 8–27% steal, spread by 20% without
// this. Every run prints raw wall times and the steal share alongside.

// refNominal is the reference loop's time on an uncontended host of the
// calibration class (2 vCPUs, x86-64). It only sets the scale: normalized
// times read as milliseconds on such a host.
const refNominal = 170 * time.Microsecond

// refBuf is 64 KiB of complex128, the kind of data trasyn's contractions
// and the simulator stream through.
var refBuf = func() []complex128 {
	b := make([]complex128, 4096)
	for i := range b {
		b[i] = complex(float64(i%17)/16, float64(i%5)/4)
	}
	return b
}()

// refSink keeps the reference loop's result alive.
var refSink atomic.Uint64

// refLoop runs the reference work once and returns its wall time.
func refLoop() time.Duration {
	t0 := time.Now()
	var acc complex128
	for r := 0; r < 40; r++ {
		for i, x := range refBuf {
			acc += x * refBuf[(i*7)&(len(refBuf)-1)]
		}
	}
	d := time.Since(t0)
	refSink.Store(math.Float64bits(real(acc)))
	return d
}

// probe measures the host's current speed as the fastest of three
// reference loops; the minimum drops a loop the scheduler happened to
// interrupt.
func probe() time.Duration {
	best := refLoop()
	for range 2 {
		best = min(best, refLoop())
	}
	return best
}

// probeAll measures the speed of every processor the program may use: a
// probe on each of GOMAXPROCS goroutines at once, averaged.
func probeAll() time.Duration {
	ds := make([]time.Duration, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range ds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ds[i] = probe()
		}()
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// timing is one timed piece of work: its wall time and its normalized
// time.
type timing struct{ wall, norm time.Duration }

// timed runs fn, work on one goroutine, between two probes.
func timed(fn func()) timing { return timedWith(probe, fn) }

// timedAll runs fn, work spread over the worker pool, between two
// all-processor probes.
func timedAll(fn func()) timing { return timedWith(probeAll, fn) }

func timedWith(probe func() time.Duration, fn func()) timing {
	p0 := probe()
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	p1 := probe()
	return timing{wall: wall, norm: normalize(wall, (p0+p1)/2)}
}

func normalize(wall, ref time.Duration) time.Duration {
	return time.Duration(float64(wall) * float64(refNominal) / float64(ref))
}

func walls(ts []timing) []time.Duration {
	out := make([]time.Duration, len(ts))
	for i, t := range ts {
		out[i] = t.wall
	}
	return out
}

func norms(ts []timing) []time.Duration {
	out := make([]time.Duration, len(ts))
	for i, t := range ts {
		out[i] = t.norm
	}
	return out
}
