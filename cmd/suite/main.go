// Command suite lists or exports the 192-circuit benchmark corpus, and can
// compile any of its circuits to Clifford+T through the synth pipeline
// API.
//
// Usage:
//
//	suite -list                 # name, category, qubits, rotations
//	suite -dump qasm_out/       # write every circuit as OpenQASM 2.0
//	suite -name qft_n8          # print one circuit's QASM to stdout
//	suite -compile qft_n8 -backend auto -eps 0.01
//	suite -compile qft_n8 -ceps 0.05    # circuit-level error budget
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/suite"
	"repro/synth"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list benchmarks")
		dump    = flag.String("dump", "", "directory to write QASM files into")
		name    = flag.String("name", "", "print one benchmark's QASM")
		compile = flag.String("compile", "", "compile one benchmark to Clifford+T")
		backend = flag.String("backend", "trasyn", "synthesis backend for -compile")
		eps     = flag.Float64("eps", 0.01, "per-rotation error threshold for -compile")
		ceps    = flag.Float64("ceps", 0, "circuit-level error budget (overrides -eps; split across rotations)")
		workers = flag.Int("workers", 0, "pipeline worker-pool size (0 = GOMAXPROCS)")
	)
	flag.Parse()
	benches := suite.Suite()
	switch {
	case *compile != "":
		for _, b := range benches {
			if b.Name != *compile {
				continue
			}
			opts := []synth.Option{
				synth.WithEpsilon(*eps),
				synth.WithWorkers(*workers),
			}
			if *ceps > 0 {
				opts = append(opts, synth.WithCircuitEpsilon(*ceps))
			}
			pl, err := synth.NewPipelineFor(*backend, opts...)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			res, err := pl.Run(context.Background(), b.Circuit)
			if err != nil {
				fmt.Fprintf(os.Stderr, "suite: compiling %s: %v\n", b.Name, err)
				os.Exit(1)
			}
			if *ceps > 0 {
				fmt.Printf("%s via %s (circuit eps %.1e, %s split)\n", b.Name, res.Backend, *ceps, res.Stats.Strategy)
			} else {
				fmt.Printf("%s via %s (eps %.1e)\n", b.Name, res.Backend, *eps)
			}
			fmt.Printf("  IR rotations : %d (setting level %d, commute %v)\n",
				res.Stats.IRRotations, res.Stats.Setting.Level, res.Stats.Setting.Commute)
			fmt.Printf("  synthesized  : %d unique (%d cache hits / %d misses)\n",
				res.Stats.Unique, res.Stats.Hits, res.Stats.Misses)
			fmt.Printf("  T=%d Clifford=%d T-depth=%d Σerr=%.2e wall=%s\n",
				res.Circuit.TCount(), res.Circuit.CliffordCount(), res.Circuit.TDepth(),
				res.Stats.ErrorBound, res.Wall.Round(time.Millisecond))
			if est := res.Stats.Resources; est != nil {
				fmt.Printf("  resources    : distance-%d surface code, %.2e cycles ≈ %.3f s\n",
					est.CodeDistance, est.ExecCycles, est.ExecSeconds)
			}
			return
		}
		fmt.Fprintf(os.Stderr, "suite: unknown benchmark %q\n", *compile)
		os.Exit(1)
	case *name != "":
		for _, b := range benches {
			if b.Name == *name {
				fmt.Print(b.Circuit.QASM())
				return
			}
		}
		fmt.Fprintf(os.Stderr, "suite: unknown benchmark %q\n", *name)
		os.Exit(1)
	case *dump != "":
		if err := os.MkdirAll(*dump, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, b := range benches {
			path := filepath.Join(*dump, b.Name+".qasm")
			if err := os.WriteFile(path, []byte(b.Circuit.QASM()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		fmt.Printf("wrote %d circuits to %s\n", len(benches), *dump)
	default:
		*list = true
		fallthrough
	case *list:
		fmt.Printf("%-28s %-24s %7s %10s %8s\n", "name", "category", "qubits", "rotations", "ops")
		for _, b := range benches {
			fmt.Printf("%-28s %-24s %7d %10d %8d\n",
				b.Name, b.Category, b.Circuit.N, b.Circuit.CountRotations(), len(b.Circuit.Ops))
		}
	}
}
