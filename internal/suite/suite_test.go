package suite

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/circuit"
	"repro/circuit/gen"
	"repro/internal/sim"
)

// TestSuiteHas192Circuits: the headline corpus size from the paper.
func TestSuiteHas192Circuits(t *testing.T) {
	s := Suite()
	if len(s) != 192 {
		t.Fatalf("suite has %d circuits, want 192", len(s))
	}
	names := map[string]bool{}
	for _, b := range s {
		if names[b.Name] {
			t.Fatalf("duplicate benchmark name %q", b.Name)
		}
		names[b.Name] = true
		if b.Circuit == nil || b.Circuit.N <= 0 || len(b.Circuit.Ops) == 0 {
			t.Fatalf("benchmark %q has an empty circuit", b.Name)
		}
	}
}

// TestSinglePauliRotation: the gadget must implement exp(−iθ/2·P) exactly.
func TestSinglePauliRotation(t *testing.T) {
	cases := []struct {
		name string
		ops  map[int]gen.Pauli
	}{
		{"Z", map[int]gen.Pauli{0: gen.PZ}},
		{"X", map[int]gen.Pauli{0: gen.PX}},
		{"Y", map[int]gen.Pauli{0: gen.PY}},
		{"ZZ", map[int]gen.Pauli{0: gen.PZ, 1: gen.PZ}},
		{"XY", map[int]gen.Pauli{0: gen.PX, 1: gen.PY}},
		{"XYZ", map[int]gen.Pauli{0: gen.PX, 1: gen.PY, 2: gen.PZ}},
		{"YZX", map[int]gen.Pauli{0: gen.PY, 1: gen.PZ, 2: gen.PX}},
	}
	for _, tc := range cases {
		theta := 0.7321
		n := 0
		for q := range tc.ops {
			if q+1 > n {
				n = q + 1
			}
		}
		h := gen.Hamiltonian{N: n, Terms: []gen.PauliTerm{gen.NewTerm(theta/2, tc.ops)}}
		// Evolution for t=1, one step: exp(−i·(θ/2)·P).
		c := h.EvolutionCircuit(1, 1)
		got := sim.Unitary(c)
		// Direct: cos(θ/2)I − i·sin(θ/2)·P.
		pm := h.Matrix() // = (θ/2)·P
		dim := 1 << uint(n)
		want := make([][]complex128, dim)
		for i := range want {
			want[i] = make([]complex128, dim)
			for j := range want[i] {
				p := pm[i][j] / complex(theta/2, 0)
				if i == j {
					want[i][j] = complex(math.Cos(theta/2), 0)
				}
				want[i][j] += complex(0, -math.Sin(theta/2)) * p
			}
		}
		if d := sim.UnitaryDistance(got, want); d > 1e-7 {
			t.Errorf("%s rotation distance %v", tc.name, d)
		}
	}
}

// TestCommutingEvolutionExact: for Z-only Hamiltonians all terms commute,
// so one Trotter step is exact. Check against the diagonal exponential.
func TestCommutingEvolutionExact(t *testing.T) {
	h := gen.MaxCutIsing(4, 3)
	tval := 0.9
	c := h.EvolutionCircuit(tval, 1)
	got := sim.Unitary(c)
	m := h.Matrix()
	dim := len(m)
	want := make([][]complex128, dim)
	for i := range want {
		want[i] = make([]complex128, dim)
		want[i][i] = cmplx.Exp(complex(0, -tval) * m[i][i])
	}
	if d := sim.UnitaryDistance(got, want); d > 1e-7 {
		t.Fatalf("Z-only evolution distance %v", d)
	}
}

func TestThreeRegularGraph(t *testing.T) {
	for _, n := range []int{4, 8, 12, 20} {
		edges := gen.ThreeRegularEdges(n, 42)
		deg := make([]int, n)
		seen := map[[2]int]bool{}
		for _, e := range edges {
			if e[0] == e[1] {
				t.Fatal("self loop")
			}
			if seen[e] {
				t.Fatal("duplicate edge")
			}
			seen[e] = true
			deg[e[0]]++
			deg[e[1]]++
		}
		for v, d := range deg {
			if d < 2 || d > 4 {
				t.Fatalf("vertex %d of n=%d has degree %d (want ≈3)", v, n, d)
			}
		}
	}
}

// TestQAOAStructure: depth-p QAOA on 3-regular graphs has 3n/2·p cost
// rotations and n·p mixer rotations.
func TestQAOAStructure(t *testing.T) {
	c := gen.QAOAMaxCut(8, 2, 7)
	rz, rx := 0, 0
	for _, op := range c.Ops {
		switch op.G {
		case circuit.RZ:
			rz++
		case circuit.RX:
			rx++
		}
	}
	if rz != 8*3/2*2 {
		t.Errorf("QAOA RZ count %d, want %d", rz, 24)
	}
	if rx != 8*2 {
		t.Errorf("QAOA RX count %d, want %d", rx, 16)
	}
}

// TestQFTSmall: QFT(2) maps |00⟩ to uniform superposition.
func TestQFTSmall(t *testing.T) {
	c := gen.QFT(2)
	s := sim.RunCircuit(c)
	for i, a := range s.Amp {
		if math.Abs(cmplx.Abs(a)-0.5) > 1e-9 {
			t.Fatalf("QFT(2)|00⟩ amplitude %d = %v, want 1/2", i, a)
		}
	}
}

// TestCuccaroAdderAdds: the adder must compute a+b on the b register.
func TestCuccaroAdderAdds(t *testing.T) {
	m := 3
	c := gen.CuccaroAdder(m)
	for _, tc := range [][2]int{{1, 2}, {3, 4}, {5, 7}, {0, 0}, {7, 7}} {
		a, b := tc[0], tc[1]
		s := sim.NewState(c.N)
		idx := 0
		for i := 0; i < m; i++ {
			if a>>uint(i)&1 == 1 {
				idx |= 1 << uint(i)
			}
			if b>>uint(i)&1 == 1 {
				idx |= 1 << uint(m+i)
			}
		}
		s.Amp[0] = 0
		s.Amp[idx] = 1
		s.Run(c)
		// Find the basis state with max amplitude.
		best, bestV := 0, 0.0
		for i, amp := range s.Amp {
			if v := cmplx.Abs(amp); v > bestV {
				best, bestV = i, v
			}
		}
		if bestV < 0.999 {
			t.Fatalf("adder output not a basis state (%v)", bestV)
		}
		sum := b + a
		gotB := (best >> uint(m)) & ((1 << uint(m)) - 1)
		gotCarry := (best >> uint(2*m+1)) & 1
		if gotB != sum%(1<<uint(m)) || gotCarry != sum>>uint(m)&1 {
			t.Fatalf("adder %d+%d: got b=%d carry=%d", a, b, gotB, gotCarry)
		}
		gotA := best & ((1 << uint(m)) - 1)
		if gotA != a {
			t.Fatalf("adder clobbered register a: %d → %d", a, gotA)
		}
	}
}

// TestWState: the W state has equal weight on all single-excitation
// basis states.
func TestWState(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5} {
		c := gen.WState(n)
		s := sim.RunCircuit(c)
		want := 1 / math.Sqrt(float64(n))
		for i, a := range s.Amp {
			ones := 0
			for b := 0; b < n; b++ {
				ones += (i >> uint(b)) & 1
			}
			v := cmplx.Abs(a)
			if ones == 1 {
				if math.Abs(v-want) > 1e-7 {
					t.Fatalf("W%d amp at %b = %v, want %v", n, i, v, want)
				}
			} else if v > 1e-7 {
				t.Fatalf("W%d spurious amplitude at %b: %v", n, i, v)
			}
		}
	}
}

// TestGroverAmplifies: after the right number of iterations the marked
// state dominates.
func TestGroverAmplifies(t *testing.T) {
	c := gen.Grover(3, 2, 1)
	s := sim.RunCircuit(c)
	p := 0.0
	// Marked state |001⟩ on the first 3 qubits; ancillas must be |0⟩.
	for i, a := range s.Amp {
		if i&7 == 1 {
			p += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	if p < 0.9 {
		t.Fatalf("Grover success probability %v < 0.9", p)
	}
}

// TestDatasetStats: Table 2 must cover three datasets with sane ranges.
func TestDatasetStats(t *testing.T) {
	stats := DatasetStats(Suite())
	if len(stats) != 3 {
		t.Fatalf("expected 3 dataset rows, got %d", len(stats))
	}
	for _, s := range stats {
		if s.Count == 0 || s.MinQ < 2 || s.MaxQ > 30 || s.MeanRot <= 0 {
			t.Fatalf("implausible stats row: %+v", s)
		}
	}
}

func TestCategoriesPresent(t *testing.T) {
	seen := map[Category]int{}
	for _, b := range Suite() {
		seen[b.Category]++
	}
	for _, cat := range []Category{CatQAOA, CatHamQuantum, CatHamClassical, CatFTAlgorithm} {
		if seen[cat] < 10 {
			t.Errorf("category %s has only %d benchmarks", cat, seen[cat])
		}
	}
}
