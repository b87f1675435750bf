package synth

import (
	"context"
	"reflect"
	"testing"

	"repro/circuit"
	"repro/circuit/gen"
)

// goldenCounts is what one pinned compile produced: the lowered
// circuit's counts, the optimizer's accounting (rows with opt > 0) and
// the block-fusion accounting (rows with fuse).
type goldenCounts struct {
	T, TDepth, TwoQubit, Clifford int

	TBefore, TAfter, Iterations int
	RuleHits                    map[string]int

	Blocks, CXSaved int
}

// Workloads of the golden table. qaoa8 is byte-identical to
// testdata/qaoa_n8_p2.qasm.
func qaoa8() *circuit.Circuit     { return gen.QAOAMaxCut(8, 2, 1) }
func qaoa8s802() *circuit.Circuit { return gen.QAOAMaxCut(8, 2, 802) }
func qaoa12() *circuit.Circuit    { return gen.QAOAMaxCut(12, 3, 1203) }
func su4n4() *circuit.Circuit     { return gen.RandomSU4Blocks(4, 8, 48) }
func su4n6() *circuit.Circuit     { return gen.RandomSU4Blocks(6, 12, 612) }

// pipelineGolden pins two quality facts of the canned pipeline.
//
// The qaoa8 rows, at circuit ε 0.3, are the paper's RQ5: the
// post-lowering optimizer leaves gridsynth's per-rotation-optimal
// sequences at 860 T, but reclaims 11,148 of Solovay–Kitaev's 49,577 T.
//
// The remaining rows run gridsynth at its default ε and opt 2, with and
// without the fuse2q pass: fusion cuts T on random SU(4) blocks and
// fuses nothing on QAOA, whose CX·RZ·CX gadgets are already optimal.
var pipelineGolden = []struct {
	name    string
	circ    func() *circuit.Circuit
	backend string
	ceps    float64 // circuit-level budget; 0 = per-rotation default
	opt     int
	fuse    bool
	want    goldenCounts
}{
	{"qaoa_n8_p2", qaoa8, "gridsynth", 0.3, 0, false,
		goldenCounts{T: 860, TDepth: 306, TwoQubit: 48, Clifford: 1424}},
	{"qaoa_n8_p2", qaoa8, "gridsynth", 0.3, 2, false,
		goldenCounts{T: 860, TDepth: 306, TwoQubit: 48, Clifford: 1416,
			TBefore: 860, TAfter: 860, Iterations: 2, RuleHits: map[string]int{"foldphases": 1}}},
	{"qaoa_n8_p2", qaoa8, "sk", 0.3, 0, false,
		goldenCounts{T: 49577, TDepth: 22549, TwoQubit: 48, Clifford: 84176}},
	{"qaoa_n8_p2", qaoa8, "sk", 0.3, 2, false,
		goldenCounts{T: 38429, TDepth: 17445, TwoQubit: 48, Clifford: 49167,
			TBefore: 49577, TAfter: 38429, Iterations: 4, RuleHits: map[string]int{"foldphases": 3, "peephole": 2}}},

	{"su4blocks_n4_b8", su4n4, "gridsynth", 0, 2, false,
		goldenCounts{T: 2328, TDepth: 1107, TwoQubit: 24, Clifford: 3487,
			TBefore: 2410, TAfter: 2328, Iterations: 3, RuleHits: map[string]int{"foldphases": 2, "peephole": 2}}},
	{"su4blocks_n4_b8", su4n4, "gridsynth", 0, 2, true,
		goldenCounts{T: 1264, TDepth: 627, TwoQubit: 21, Clifford: 1896,
			TBefore: 1304, TAfter: 1264, Iterations: 3, RuleHits: map[string]int{"foldphases": 2, "peephole": 2},
			Blocks: 7, CXSaved: 3}},
	{"su4blocks_n6_b12", su4n6, "gridsynth", 0, 2, false,
		goldenCounts{T: 3245, TDepth: 1306, TwoQubit: 36, Clifford: 4902,
			TBefore: 3403, TAfter: 3245, Iterations: 3, RuleHits: map[string]int{"foldphases": 2, "peephole": 2}}},
	{"su4blocks_n6_b12", su4n6, "gridsynth", 0, 2, true,
		goldenCounts{T: 2102, TDepth: 838, TwoQubit: 30, Clifford: 3163,
			TBefore: 2188, TAfter: 2102, Iterations: 4, RuleHits: map[string]int{"foldphases": 3, "peephole": 2},
			Blocks: 8, CXSaved: 6}},
	{"qaoa_n8_p2_s802", qaoa8s802, "gridsynth", 0, 2, false,
		goldenCounts{T: 728, TDepth: 262, TwoQubit: 48, Clifford: 1252,
			TBefore: 728, TAfter: 728, Iterations: 2, RuleHits: map[string]int{"peephole": 1}}},
	{"qaoa_n8_p2_s802", qaoa8s802, "gridsynth", 0, 2, true,
		goldenCounts{T: 728, TDepth: 262, TwoQubit: 48, Clifford: 1252,
			TBefore: 728, TAfter: 728, Iterations: 2, RuleHits: map[string]int{"peephole": 1}}},
	{"qaoa_n12_p3", qaoa12, "gridsynth", 0, 2, false,
		goldenCounts{T: 1650, TDepth: 320, TwoQubit: 108, Clifford: 2740,
			TBefore: 1650, TAfter: 1650, Iterations: 3, RuleHits: map[string]int{"foldphases": 1, "peephole": 2}}},
	{"qaoa_n12_p3", qaoa12, "gridsynth", 0, 2, true,
		goldenCounts{T: 1650, TDepth: 320, TwoQubit: 108, Clifford: 2740,
			TBefore: 1650, TAfter: 1650, Iterations: 3, RuleHits: map[string]int{"foldphases": 1, "peephole": 2}}},
}

// TestPipelineGolden compiles each row through the canned pipeline and
// compares every recorded count.
func TestPipelineGolden(t *testing.T) {
	for _, row := range pipelineGolden {
		opts := []Option{WithOptimize(row.opt)}
		if row.ceps > 0 {
			opts = append(opts, WithCircuitEpsilon(row.ceps))
		}
		if row.fuse {
			opts = append(opts, WithFuseBlocks())
		}
		pl, err := NewPipelineFor(row.backend, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pl.Run(context.Background(), row.circ())
		if err != nil {
			t.Fatalf("%s/%s: %v", row.name, row.backend, err)
		}
		got := goldenCounts{
			T:        res.Circuit.TCount(),
			TDepth:   res.Circuit.TDepth(),
			TwoQubit: res.Circuit.TwoQubitCount(),
			Clifford: res.Circuit.CliffordCount(),
		}
		if o := res.Stats.Opt; o != nil {
			got.TBefore, got.TAfter, got.Iterations, got.RuleHits = o.TCountBefore, o.TCountAfter, o.Iterations, o.RuleHits
		}
		if f := res.Stats.Fuse; f != nil {
			got.Blocks, got.CXSaved = f.Blocks, f.CXSaved
		}
		if !reflect.DeepEqual(got, row.want) {
			t.Errorf("%s/%s opt=%d fuse=%v:\n got  %+v\n want %+v",
				row.name, row.backend, row.opt, row.fuse, got, row.want)
		}
	}
}
