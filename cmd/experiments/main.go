// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig7 [-n 100] [-samples 4000] [-maxt 10] [-out results/]
//	experiments -run all -out results/
//
// Scale flags default to CPU-minutes sizes; each table's notes give the
// paper's numbers next to the measured ones.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/expt"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiments")
		run     = flag.String("run", "", "experiment id (or 'all')")
		n       = flag.Int("n", 0, "unitaries/angles for RQ1/RQ2 (paper: 1000)")
		samples = flag.Int("samples", 0, "trasyn samples k (paper: 40000)")
		maxt    = flag.Int("maxt", 0, "per-tensor T budget m (paper: 10)")
		sites   = flag.Int("sites", 0, "max MPS tensors (paper: 3)")
		benches = flag.Int("benches", 0, "suite circuits to process (0 = default subsample; -1 = all 192)")
		simq    = flag.Int("simq", 0, "max qubits for noisy simulation")
		out     = flag.String("out", "", "CSV output directory")
		seed    = flag.Int64("seed", 0, "random seed")
		workers = flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	)
	flag.Parse()

	if *list || *run == "" {
		fmt.Println("experiments:")
		for _, e := range expt.Registry() {
			fmt.Printf("  %-6s %s\n", e.ID, e.Desc)
		}
		return
	}
	cfg := expt.Config{
		N: *n, Samples: *samples, MaxT: *maxt, Sites: *sites,
		SimQubits: *simq, OutDir: *out, Seed: *seed, Workers: *workers,
	}
	if *benches == -1 {
		cfg.BenchLimit = 192
	} else {
		cfg.BenchLimit = *benches
	}
	ids := []string{*run}
	if *run == "all" {
		ids = ids[:0]
		for _, e := range expt.Registry() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		e, err := expt.Find(strings.TrimSpace(id))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		start := time.Now()
		tab, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		tab.Print(os.Stdout)
		fmt.Printf("(%s took %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
