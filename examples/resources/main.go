// Resource estimation extension: translate the T-count savings of the U3
// workflow into fault-tolerant machine resources (distillation rounds,
// factory qubits, wall-clock) with the standard surface-code model — the
// "why T gates matter" arithmetic from the paper's introduction. Both
// workflows run through the synth pass pipeline, whose EstimateResources
// pass attaches the footprint to the run's stats directly.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/circuit/gen"
	"repro/synth"
)

func main() {
	circ := gen.TFIM(10, 1.0, 0.7).EvolutionCircuit(0.5, 2)
	fmt.Printf("TFIM(10) Trotter circuit: %d rotations\n", circ.CountRotations())

	const circuitEps = 0.3 // shared circuit-level budget for both IRs
	ctx := context.Background()
	tp, err := synth.NewPipelineFor("trasyn",
		synth.WithRequest(synth.Request{TBudget: 5, Tensors: 4, Samples: 2000, Seed: synth.Seed(7)}),
		synth.WithCircuitEpsilon(circuitEps))
	if err != nil {
		log.Fatal(err)
	}
	u3res, err := tp.Run(ctx, circ)
	if err != nil {
		log.Fatal(err)
	}
	gp, err := synth.NewPipelineFor("gridsynth", synth.WithCircuitEpsilon(circuitEps))
	if err != nil {
		log.Fatal(err)
	}
	rzres, err := gp.Run(ctx, circ)
	if err != nil {
		log.Fatal(err)
	}

	for _, w := range []struct {
		name string
		res  *synth.PipelineResult
	}{
		{"trasyn (U3 IR)", u3res},
		{"gridsynth (Rz IR)", rzres},
	} {
		est := w.res.Stats.Resources // filled by the EstimateResources pass
		fmt.Printf("\n%s: T=%d T-depth=%d (Σerr %.2e within budget %.1e)\n",
			w.name, w.res.Circuit.TCount(), w.res.Circuit.TDepth(),
			w.res.Stats.ErrorBound, circuitEps)
		fmt.Printf("  T count / magic states : %d\n", est.MagicStates)
		fmt.Printf("  code distance          : %d (%d phys/logical)\n", est.CodeDistance, est.PhysPerLogical)
		fmt.Printf("  distillation rounds    : %d (factory: %d phys qubits)\n", est.DistillRounds, est.FactoryQubits)
		fmt.Printf("  data block             : %d phys qubits\n", est.DataQubits)
		fmt.Printf("  execution              : %.2e cycles ≈ %.3f s\n", est.ExecCycles, est.ExecSeconds)
	}
	fmt.Printf("\nwall-clock speedup from the T-count reduction: %.2fx\n",
		float64(rzres.Circuit.TCount())/float64(u3res.Circuit.TCount()))
}
