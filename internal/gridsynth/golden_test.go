package gridsynth

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// goldenFile pins Rz's outputs over the ε ladder the benchmark and the
// U3 workflow use: 54 angles at each of 11 thresholds. To re-record after
// a change meant to alter outputs, delete the file and run the test: that
// run records it and fails, so it cannot pass unchecked.
//
// The file was recorded before exact admission and the tight scan. Entries
// that change moved carry the recorded result under "was"; only entries
// below ε = 1e-5 may have one, none with a larger K, and no threshold's
// mean T may exceed its recorded mean.
const goldenFile = "testdata/rz_golden.json"

// goldenEps are the recorded thresholds: u3_single's and qaoa_auto's
// U3 legs (ε/3), serve_mix's 1e-4, and the ladder down to 1e-6.
var goldenEps = []float64{0.1, 5e-2, 1.67e-2, 1e-2, 7e-3, 1e-3, 1e-4, 3.3e-5, 1e-5, 2.82e-6, 1e-6}

// goldenAngles returns 48 seeded angles plus the exact and near-exact
// ones whose candidates sit on the disk boundary.
func goldenAngles() []float64 {
	rng := rand.New(rand.NewSource(2026))
	angles := make([]float64, 0, 54)
	for i := 0; i < 48; i++ {
		angles = append(angles, rng.Float64()*4*math.Pi-2*math.Pi)
	}
	return append(angles, 0, math.Pi/4, math.Pi/2, math.Pi, -math.Pi/8, 1e-9)
}

// goldenEntry is one recorded Rz call. The angle and the error are stored
// as the hex of their IEEE-754 bits, so the file compares exactly.
type goldenEntry struct {
	Theta    string  `json:"theta"`
	Eps      float64 `json:"eps"`
	K        int     `json:"k"`
	T        int     `json:"t"`
	Clifford int     `json:"clifford"`
	Error    string  `json:"error"`
	SeqSHA   string  `json:"seq_sha256"`
	Err      string  `json:"err,omitempty"`
	Was      *was    `json:"was,omitempty"`
}

// was is an entry's result as first recorded, kept where it changed.
type was struct {
	K     int    `json:"k"`
	T     int    `json:"t"`
	Error string `json:"error"`
}

func goldenRun(theta, eps float64) goldenEntry {
	e := goldenEntry{Theta: hexBits(theta), Eps: eps}
	r, err := Rz(theta, eps, Options{})
	if err != nil {
		e.Err = err.Error()
		return e
	}
	sum := sha256.Sum256([]byte(r.Seq.String()))
	e.K, e.T, e.Clifford = r.K, r.TCount, r.Clifford
	e.Error = hexBits(r.Error)
	e.SeqSHA = hex.EncodeToString(sum[:])
	return e
}

func hexBits(x float64) string { return strconv.FormatUint(math.Float64bits(x), 16) }

func fromHexBits(s string) (float64, error) {
	b, err := strconv.ParseUint(s, 16, 64)
	return math.Float64frombits(b), err
}

func TestRzGolden(t *testing.T) {
	data, err := os.ReadFile(goldenFile)
	if os.IsNotExist(err) {
		recordGolden(t)
		t.Fatalf("recorded %s; run again to check against it", goldenFile)
	}
	if err != nil {
		t.Fatal(err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(goldenEps)*len(goldenAngles()) {
		t.Fatalf("%s has %d entries, want %d", goldenFile, len(entries), len(goldenEps)*len(goldenAngles()))
	}
	sumT, sumWasT := map[float64]int{}, map[float64]int{}
	for _, e := range entries {
		sumT[e.Eps] += e.T
		sumWasT[e.Eps] += e.T
		if e.Was == nil {
			continue
		}
		sumWasT[e.Eps] += e.Was.T - e.T
		if e.Eps >= 1e-5 || e.K > e.Was.K {
			t.Errorf("entry %s at ε=%v changed from K=%d to K=%d", e.Theta, e.Eps, e.Was.K, e.K)
		}
	}
	for eps, n := range sumT {
		if n > sumWasT[eps] {
			t.Errorf("ε=%v: total T %d exceeds the recorded %d", eps, n, sumWasT[eps])
		}
	}
	step := 1
	if raceEnabled {
		step = 9
	}
	for i := 0; i < len(entries); i += step {
		want := entries[i]
		want.Was = nil
		theta, err := fromHexBits(want.Theta)
		if err != nil {
			t.Fatal(err)
		}
		if got := goldenRun(theta, want.Eps); got != want {
			t.Errorf("Rz(%v, %v):\n got %+v\nwant %+v", theta, want.Eps, got, want)
		}
	}
}

func recordGolden(t *testing.T) {
	var entries []goldenEntry
	for _, eps := range goldenEps {
		for _, theta := range goldenAngles() {
			entries = append(entries, goldenRun(theta, eps))
		}
	}
	data, err := json.MarshalIndent(entries, "", "  ")
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
