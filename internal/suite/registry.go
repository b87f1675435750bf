// Package suite generates the 192-circuit benchmark corpus of the
// evaluation: QAOA MaxCut circuits with merge-friendly gate ordering,
// Hamlib-style Hamiltonian-simulation circuits compiled from Pauli strings
// (a greedy CNOT-ladder compiler standing in for Rustiq), and
// Benchpress/QASMBench-style fault-tolerant algorithm circuits (QFT, QPE,
// adders, GHZ/W states, VQE ansatzes, Grover, random circuits).
//
// The generators themselves live in the public circuit/gen package, so
// benchmarks, examples, and external callers share one workload source;
// this package keeps only the corpus registry (Suite, DatasetStats).
package suite

import (
	"fmt"

	"repro/circuit"
	"repro/circuit/gen"
)

// Category labels benchmarks the way the paper's Figure 10 groups them.
type Category string

// Benchmark categories.
const (
	CatQAOA         Category = "qaoa"
	CatHamQuantum   Category = "quantum-hamiltonian"
	CatHamClassical Category = "classical-hamiltonian"
	CatFTAlgorithm  Category = "ft-algorithm"
)

// Benchmark is one suite entry.
type Benchmark struct {
	Name     string
	Category Category
	Dataset  string // benchpress | hamlib | qaoa (Table 2 grouping)
	Circuit  *circuit.Circuit
}

// Suite generates the full 192-circuit corpus:
//   - 60 QAOA MaxCut circuits (depths 1–5 × 12 sizes, 4–26 qubits),
//   - 60 Hamlib-style Hamiltonian circuits (6 families × 10 sizes),
//   - 72 Benchpress/QASMBench-style algorithm circuits (including the
//     random-SU(4)-block family block fusion targets).
//
// Everything is generated deterministically from fixed seeds.
func Suite() []Benchmark {
	var out []Benchmark

	// --- QAOA: depths 1..5, qubits 4..26 step 2 (12 sizes) → 60.
	for depth := 1; depth <= 5; depth++ {
		for n := 4; n <= 26; n += 2 {
			out = append(out, Benchmark{
				Name:     fmtName("qaoa_maxcut", n, "p", depth),
				Category: CatQAOA,
				Dataset:  "qaoa",
				Circuit:  gen.QAOAMaxCut(n, depth, int64(n*100+depth)),
			})
		}
	}

	// --- Hamlib-style: 6 families × 10 sizes → 60.
	sizes := []int{4, 5, 6, 7, 8, 9, 10, 11, 12, 14}
	for _, n := range sizes {
		out = append(out, Benchmark{
			Name: fmtName("tfim", n), Category: CatHamQuantum, Dataset: "hamlib",
			Circuit: gen.TFIM(n, 1.0, 0.7).EvolutionCircuit(0.5, 2),
		})
	}
	for _, n := range sizes {
		out = append(out, Benchmark{
			Name: fmtName("heisenberg", n), Category: CatHamQuantum, Dataset: "hamlib",
			Circuit: gen.Heisenberg(n, 1.0).EvolutionCircuit(0.4, 2),
		})
	}
	for _, n := range sizes {
		out = append(out, Benchmark{
			Name: fmtName("xy", n), Category: CatHamQuantum, Dataset: "hamlib",
			Circuit: gen.XYChain(n, 1.0).EvolutionCircuit(0.6, 2),
		})
	}
	for _, n := range sizes {
		out = append(out, Benchmark{
			Name: fmtName("molecular", n), Category: CatHamQuantum, Dataset: "hamlib",
			Circuit: gen.Molecular(n, 6*n, int64(n)).EvolutionCircuit(0.3, 1),
		})
	}
	for _, n := range sizes {
		out = append(out, Benchmark{
			Name: fmtName("maxcut_ising", n), Category: CatHamClassical, Dataset: "hamlib",
			Circuit: gen.MaxCutIsing(n, int64(n*7)).EvolutionCircuit(1.2, 2),
		})
	}
	for _, n := range sizes {
		out = append(out, Benchmark{
			Name: fmtName("spinglass", n), Category: CatHamClassical, Dataset: "hamlib",
			Circuit: gen.SpinGlass(n, int64(n*13)).EvolutionCircuit(0.5, 1),
		})
	}

	// --- Benchpress/QASMBench-style: 67 circuits.
	for n := 2; n <= 12; n++ { // 11 QFTs
		out = append(out, Benchmark{
			Name: fmtName("qft", n), Category: CatFTAlgorithm, Dataset: "benchpress",
			Circuit: gen.QFT(n),
		})
	}
	for _, bits := range []int{2, 3, 4, 5, 6} { // 5 QPEs
		out = append(out, Benchmark{
			Name: fmtName("qpe", bits+1, "bits", bits), Category: CatFTAlgorithm, Dataset: "benchpress",
			Circuit: gen.QPE(bits, 0.1234),
		})
	}
	for _, m := range []int{1, 2, 3, 4, 5, 6} { // 6 adders
		out = append(out, Benchmark{
			Name: fmtName("cuccaro_adder", 2*m+2, "m", m), Category: CatFTAlgorithm, Dataset: "benchpress",
			Circuit: gen.CuccaroAdder(m),
		})
	}
	for n := 3; n <= 12; n++ { // 10 GHZ
		out = append(out, Benchmark{
			Name: fmtName("ghz_rot", n), Category: CatFTAlgorithm, Dataset: "benchpress",
			Circuit: gen.GHZWithRotations(n, int64(n*3)),
		})
	}
	for n := 3; n <= 12; n++ { // 10 W states
		out = append(out, Benchmark{
			Name: fmtName("wstate", n), Category: CatFTAlgorithm, Dataset: "benchpress",
			Circuit: gen.WState(n),
		})
	}
	for i, cfg := range [][2]int{{4, 1}, {4, 2}, {6, 1}, {6, 2}, {8, 1}, {8, 2}, {10, 1}, {10, 2}, {12, 1}, {12, 2}} { // 10 VQE
		out = append(out, Benchmark{
			Name: fmtName("vqe_hea", cfg[0], "l", cfg[1]), Category: CatFTAlgorithm, Dataset: "benchpress",
			Circuit: gen.VQEAnsatz(cfg[0], cfg[1], int64(i+1)),
		})
	}
	for _, cfg := range [][2]int{{2, 1}, {3, 1}, {4, 2}} { // 3 Grover
		out = append(out, Benchmark{
			Name: fmtName("grover", cfg[0], "it", cfg[1]), Category: CatFTAlgorithm, Dataset: "benchpress",
			Circuit: gen.Grover(cfg[0], cfg[1], 1),
		})
	}
	for i, cfg := range [][2]int{{3, 2}, {3, 4}, {4, 2}, {4, 4}, {5, 2}, {5, 4}, {6, 3}, {7, 3}, {8, 3}, {9, 3}, {10, 3}, {12, 3}} { // 12 random
		out = append(out, Benchmark{
			Name: fmtName("random", cfg[0], "d", cfg[1]), Category: CatFTAlgorithm, Dataset: "benchpress",
			Circuit: gen.RandomCircuit(cfg[0], cfg[1], int64(i+11)),
		})
	}
	for i, cfg := range [][2]int{{4, 4}, {4, 8}, {6, 6}, {8, 8}, {10, 10}} { // 5 random SU(4) blocks
		out = append(out, Benchmark{
			Name: fmtName("su4blocks", cfg[0], "b", cfg[1]), Category: CatFTAlgorithm, Dataset: "benchpress",
			Circuit: gen.RandomSU4Blocks(cfg[0], cfg[1], int64(i+29)),
		})
	}
	return out
}

// Stats summarizes a dataset for Table 2.
type Stats struct {
	Dataset        string
	Count          int
	MinQ, MaxQ     int
	MeanQ          float64
	MinRot, MaxRot int
	MeanRot        float64
}

// DatasetStats computes Table 2's per-dataset qubit and rotation-count
// statistics from the generated suite (rotations counted on the raw
// circuits, before transpilation).
func DatasetStats(benchmarks []Benchmark) []Stats {
	order := []string{"benchpress", "hamlib", "qaoa"}
	agg := map[string]*Stats{}
	for _, name := range order {
		agg[name] = &Stats{Dataset: name, MinQ: 1 << 30, MinRot: 1 << 30}
	}
	for _, b := range benchmarks {
		s := agg[b.Dataset]
		if s == nil {
			continue
		}
		q := b.Circuit.N
		r := b.Circuit.CountRotations()
		s.Count++
		s.MeanQ += float64(q)
		s.MeanRot += float64(r)
		if q < s.MinQ {
			s.MinQ = q
		}
		if q > s.MaxQ {
			s.MaxQ = q
		}
		if r < s.MinRot {
			s.MinRot = r
		}
		if r > s.MaxRot {
			s.MaxRot = r
		}
	}
	out := make([]Stats, 0, len(order))
	for _, name := range order {
		s := agg[name]
		if s.Count > 0 {
			s.MeanQ /= float64(s.Count)
			s.MeanRot /= float64(s.Count)
		}
		out = append(out, *s)
	}
	return out
}

// fmtName builds benchmark names like "tfim_n8".
func fmtName(family string, n int, extra ...interface{}) string {
	name := fmt.Sprintf("%s_n%d", family, n)
	for _, e := range extra {
		name += fmt.Sprintf("_%v", e)
	}
	return name
}
