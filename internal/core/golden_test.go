package core

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/gates"
	"repro/internal/qmat"
)

// goldenFile pins TRASYN's outputs: 64 Haar targets, each run at ε 5e-2
// and 2e-2, sampling and beam search. It was recorded before the sampler's
// kernels and parallel split, which TestTRASYNGolden therefore shows to be
// output-neutral. To re-record after a change meant to alter outputs,
// delete the file and run the test: that run records it and fails, so it
// cannot pass unchecked.
const goldenFile = "testdata/trasyn_golden.json"

// goldenTarget is one target with its recorded runs. Floats are stored as
// the hex of their IEEE-754 bits, so the file compares exactly.
type goldenTarget struct {
	U    [8]string   `json:"u"` // re, im of u00, u01, u10, u11
	Runs []goldenRun `json:"runs"`
}

type goldenRun struct {
	Eps   float64 `json:"eps"`
	Beam  bool    `json:"beam"`
	Seq   string  `json:"seq"`
	Error string  `json:"error"` // float64 bits
	Evals int     `json:"evals"`
}

// backendRun is TRASYN as the trasyn backend runs it for a request with
// threshold eps and every other field at its default.
func backendRun(u qmat.M2, eps float64, beam bool) goldenRun {
	cfg := DefaultConfig(gates.Shared(5), 5, 4, 2000)
	cfg.Epsilon = eps
	cfg.UseBeam = beam
	cfg.Rng = rand.New(rand.NewSource(1))
	res := TRASYN(u, cfg)
	return goldenRun{Eps: eps, Beam: beam, Seq: res.Seq.String(), Error: hexBits(res.Error), Evals: res.Evals}
}

func hexBits(x float64) string { return strconv.FormatUint(math.Float64bits(x), 16) }

func TestTRASYNGolden(t *testing.T) {
	data, err := os.ReadFile(goldenFile)
	if os.IsNotExist(err) {
		recordGolden(t)
		t.Fatalf("recorded %s; run again to check against it", goldenFile)
	}
	if err != nil {
		t.Fatal(err)
	}
	var targets []goldenTarget
	if err := json.Unmarshal(data, &targets); err != nil {
		t.Fatal(err)
	}
	step := 1
	if raceEnabled {
		step = 16
	}
	for i := 0; i < len(targets); i += step {
		u, err := decodeTarget(targets[i].U)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range targets[i].Runs {
			if got := backendRun(u, want.Eps, want.Beam); got != want {
				t.Errorf("target %d:\n got %+v\nwant %+v", i, got, want)
			}
		}
	}
}

func decodeTarget(h [8]string) (qmat.M2, error) {
	var f [8]float64
	for j, s := range h {
		b, err := strconv.ParseUint(s, 16, 64)
		if err != nil {
			return qmat.M2{}, err
		}
		f[j] = math.Float64frombits(b)
	}
	return qmat.M2{{complex(f[0], f[1]), complex(f[2], f[3])}, {complex(f[4], f[5]), complex(f[6], f[7])}}, nil
}

func recordGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	targets := make([]goldenTarget, 64)
	for i := range targets {
		u := qmat.HaarRandom(rng)
		g := &targets[i]
		for j := range g.U {
			z := u[j/4][j/2%2]
			g.U[j] = hexBits(real(z))
			if j%2 == 1 {
				g.U[j] = hexBits(imag(z))
			}
		}
		for _, eps := range []float64{5e-2, 2e-2} {
			for _, beam := range []bool{false, true} {
				g.Runs = append(g.Runs, backendRun(u, eps, beam))
			}
		}
	}
	data, err := json.MarshalIndent(targets, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenFile, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
