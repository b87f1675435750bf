// Command trasyn synthesizes a single-qubit unitary into a Clifford+T
// sequence through the unified synth.Backend API, and compares against the
// gridsynth baseline.
//
// Usage:
//
//	trasyn -theta 0.3 -phi 1.1 -lambda -0.4 [-budget 8] [-tensors 2] [-samples 2000] [-eps 0]
//	trasyn -rz 0.7241 -eps 0.001        # synthesize a single Rz via both engines
//	trasyn -random [-seed 1]            # Haar-random target
//	trasyn -backend auto -random        # race trasyn vs gridsynth
//	trasyn -backends                    # list registered backends
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/qmat"
	"repro/synth"
)

func main() {
	var (
		theta    = flag.Float64("theta", 0, "U3 θ")
		phi      = flag.Float64("phi", 0, "U3 φ")
		lambda   = flag.Float64("lambda", 0, "U3 λ")
		rz       = flag.Float64("rz", 0, "synthesize Rz(angle) instead of a U3")
		random   = flag.Bool("random", false, "use a Haar-random target")
		seed     = flag.Int64("seed", 1, "random seed")
		budget   = flag.Int("budget", 8, "per-tensor T budget m")
		tensors  = flag.Int("tensors", 2, "max MPS tensors l")
		samples  = flag.Int("samples", 2000, "samples k")
		eps      = flag.Float64("eps", 0, "error threshold (0 = best effort)")
		beam     = flag.Bool("beam", false, "deterministic beam search")
		backend  = flag.String("backend", "trasyn", "synthesis backend: "+strings.Join(synth.List(), ", "))
		timeout  = flag.Duration("timeout", 0, "per-synthesis wall-clock budget (0 = none)")
		backends = flag.Bool("backends", false, "list registered backends and exit")
	)
	flag.Parse()

	if *backends {
		for _, n := range synth.List() {
			fmt.Println(n)
		}
		return
	}
	be, ok := synth.Lookup(*backend)
	if !ok {
		fmt.Fprintf(os.Stderr, "trasyn: unknown backend %q (have %s)\n", *backend, strings.Join(synth.List(), ", "))
		os.Exit(1)
	}

	var u qmat.M2
	switch {
	case *random:
		u = qmat.HaarRandom(rand.New(rand.NewSource(*seed)))
		fmt.Printf("target: Haar-random (seed %d)\n", *seed)
	case *rz != 0:
		u = qmat.Rz(*rz)
		fmt.Printf("target: Rz(%g)\n", *rz)
	default:
		u = qmat.U3(*theta, *phi, *lambda)
		fmt.Printf("target: U3(%g, %g, %g)\n", *theta, *phi, *lambda)
	}

	req := synth.Request{
		Epsilon: *eps, TBudget: *budget, Tensors: *tensors, Samples: *samples,
		Beam: *beam, Seed: synth.Seed(*seed), Timeout: *timeout,
	}
	ctx := context.Background()
	res, err := be.Synthesize(ctx, u, req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s failed: %v\n", *backend, err)
		os.Exit(1)
	}
	fmt.Printf("%-10s T=%-3d Clifford=%-3d error=%.3e wall=%s\n",
		res.Backend+":", res.TCount, res.Clifford, res.Error, res.Wall.Round(time.Microsecond))
	fmt.Printf("  sequence: %v\n", res.Seq)

	if *backend == "gridsynth" {
		return // nothing to compare against itself
	}
	geps := res.Error
	if *eps > 0 {
		geps = *eps
	}
	if geps <= 0 || geps >= 1 {
		geps = 1e-2
	}
	gs, _ := synth.Lookup("gridsynth")
	gres, err := gs.Synthesize(ctx, u, synth.Request{Epsilon: geps, Timeout: *timeout})
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridsynth failed: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%-10s T=%-3d Clifford=%-3d error=%.3e (eps=%.1e)\n",
		"gridsynth:", gres.TCount, gres.Clifford, gres.Error, geps)
	if res.TCount > 0 {
		fmt.Printf("T-count ratio (gridsynth/%s): %.2fx\n", res.Backend, float64(gres.TCount)/float64(res.TCount))
	}
}
