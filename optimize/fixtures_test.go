package optimize_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/circuit"
	"repro/circuit/gen"
	"repro/synth"
)

// fixture is one optimizer input: a named circuit as the post-lowering
// optimizer (the optct pass) would receive it.
type fixture struct {
	name string
	c    *circuit.Circuit
}

// randomFixtures are random Clifford+T circuits at fixed seeds.
func randomFixtures() []fixture {
	var fs []fixture
	for _, p := range []struct {
		n, depth int
		seed     int64
	}{{3, 120, 1}, {3, 200, 2}, {4, 300, 3}, {5, 400, 4}, {6, 600, 5}} {
		fs = append(fs, fixture{
			name: fmt.Sprintf("random_clifford_t(%d,%d,%d)", p.n, p.depth, p.seed),
			c:    gen.RandomCliffordT(p.n, p.depth, p.seed),
		})
	}
	return fs
}

var (
	loweredOnce sync.Once
	lowered     []fixture
	loweredErr  error
)

// loweredFixtures are the circuit families of the benchmark's
// circuits_gridsynth workload at small sizes, lowered through gridsynth at
// a circuit-level ε of 1e-3 by the passes that precede optct at
// optimizer level 2. They are built once per test binary.
func loweredFixtures(t testing.TB) []fixture {
	t.Helper()
	loweredOnce.Do(func() {
		const seed = 7
		inputs := []fixture{
			{"qaoa_maxcut(6,2)", gen.QAOAMaxCut(6, 2, seed)},
			{"qft(5)", gen.QFT(5)},
			{"vqe(5,3)", gen.VQEAnsatz(5, 3, seed)},
			{"su4_blocks(4,6)", gen.RandomSU4Blocks(4, 6, seed)},
			{"ghz_rot(6)", gen.GHZWithRotations(6, seed)},
			{"random(5,8)", gen.RandomCircuit(5, 8, seed)},
			{"cuccaro_adder(2)", gen.CuccaroAdder(2)},
		}
		for _, in := range inputs {
			pl, err := synth.NewPipelineFor("gridsynth",
				synth.WithCircuitEpsilon(1e-3),
				synth.WithPasses(synth.Transpile(), synth.OptimizeRotations(),
					synth.FuseRotations(), synth.SnapTrivial(), synth.Lower()))
			if err != nil {
				loweredErr = err
				return
			}
			res, err := pl.Run(context.Background(), in.c)
			if err != nil {
				loweredErr = fmt.Errorf("lowering %s: %w", in.name, err)
				return
			}
			lowered = append(lowered, fixture{name: "lowered/" + in.name, c: res.Circuit})
		}
	})
	if loweredErr != nil {
		t.Fatal(loweredErr)
	}
	return lowered
}

// opsSHA fingerprints a circuit exactly: every op's gate, qubits and the
// IEEE-754 bits of every parameter.
func opsSHA(c *circuit.Circuit) string {
	h := sha256.New()
	var b [8 + 2*8 + 3*8]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(c.N))
	h.Write(b[:8])
	for _, op := range c.Ops {
		binary.LittleEndian.PutUint64(b[0:], uint64(op.G))
		binary.LittleEndian.PutUint64(b[8:], uint64(int64(op.Q[0])))
		binary.LittleEndian.PutUint64(b[16:], uint64(int64(op.Q[1])))
		for i, p := range op.P {
			binary.LittleEndian.PutUint64(b[24+8*i:], math.Float64bits(p))
		}
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
