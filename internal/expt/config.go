package expt

import (
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/gates"
)

// Config sets experiment scales. Zero values select CPU-minutes defaults;
// the paper-scale values are noted per field.
type Config struct {
	// N is the number of random unitaries/angles for RQ1/RQ2 (paper: 1000).
	N int
	// Samples is trasyn's k (paper: 40000 on an A100).
	Samples int
	// MaxT is the per-tensor enumeration budget m (paper: 10).
	MaxT int
	// Sites is the maximum number of MPS tensors (paper: 3 → T ≤ 30).
	Sites int
	// BenchLimit caps how many of the 192 suite circuits the circuit
	// experiments process (0 = all; default subsamples evenly).
	BenchLimit int
	// SimQubits caps simulation-based experiments (paper: 12 for noisy).
	SimQubits int
	// FidTrials is the importance-sampling trial count for RQ4.
	FidTrials int
	// Seed drives all randomness.
	Seed int64
	// OutDir receives CSVs ("" disables).
	OutDir string
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
}

func (c Config) filled() Config {
	if c.N <= 0 {
		c.N = 40
	}
	if c.Samples <= 0 {
		c.Samples = 1500
	}
	if c.MaxT <= 0 {
		c.MaxT = 5
	}
	if c.Sites <= 0 {
		c.Sites = 4
	}
	if c.BenchLimit < 0 {
		c.BenchLimit = 0
	}
	if c.BenchLimit == 0 {
		c.BenchLimit = 48
	}
	if c.SimQubits <= 0 {
		c.SimQubits = 8
	}
	if c.FidTrials <= 0 {
		c.FidTrials = 300
	}
	if c.Seed == 0 {
		c.Seed = 20260611
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// trasynConfig builds the shared trasyn configuration for the scale.
func (c Config) trasynConfig(sites int, eps float64, seed int64) core.Config {
	cfg := core.DefaultConfig(gates.Shared(c.MaxT), c.MaxT, sites, c.Samples)
	cfg.Epsilon = eps
	cfg.Rng = rand.New(rand.NewSource(seed))
	return cfg
}

// parallel runs fn(0), …, fn(n-1) on at most workers goroutines and
// returns when all have finished. Callers write each result into its own
// index's slot, so tables come out in input order whatever order the
// goroutines finish in.
func parallel(n, workers int, fn func(i int)) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i)
		}()
	}
	wg.Wait()
}
