package grid_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/grid"
	"repro/internal/gridsynth"
)

// scanGoldenFile pins the whole stream Sliver.Scan yields: every
// candidate, in order, and each scan's completion flag, as gridsynth
// builds its slivers (both phase grids, admission at the acceptance
// bound). A change meant to make the scan cheaper must leave it as it
// is. To re-record after a change meant to alter the stream, delete the
// file and run the test: that run records it and fails, so it cannot
// pass unchecked.
const scanGoldenFile = "testdata/scan_golden.json"

// scanGoldenEps are the recorded thresholds. Each entry scans every k
// from 0 to two past the one gridsynth solves at.
var scanGoldenEps = []float64{1e-2, 1e-4, 1e-5, 1e-6, 1e-7}

// scanGoldenAngles returns 30 seeded angles plus 0 and π/4, where
// candidates sit on the disk boundary.
func scanGoldenAngles() []float64 {
	rng := rand.New(rand.NewSource(22))
	angles := make([]float64, 0, 32)
	for i := 0; i < 30; i++ {
		angles = append(angles, rng.Float64()*4*math.Pi-2*math.Pi)
	}
	return append(angles, 0, math.Pi/4)
}

// scanGoldenDense is the dense case of TestScanKeepsReferenceOrder: at
// ε = 1e-6 and θ = ±2.5ε, k = 38 puts ~2·10⁴ admissible points in one x
// column, which pins the order inside a y solve.
var scanGoldenDense = []float64{2.5e-6, -2.5e-6}

// scanGoldenEntry is the stream of one angle at one ε over the denominator
// exponents KLo..KHi. The angle is stored as the hex of its IEEE-754 bits.
type scanGoldenEntry struct {
	Theta      string  `json:"theta"`
	Eps        float64 `json:"eps"`
	KLo        int     `json:"k_lo"`
	KHi        int     `json:"k_hi"`
	Candidates int     `json:"candidates"`
	SHA        string  `json:"sha256"`
}

// rzSlivers returns the slivers gridsynth.Rz scans for Rz(θ) at ε: one per
// phase grid, admitting up to its acceptance bound.
func rzSlivers(theta, eps float64) [2]*grid.Sliver {
	admit := eps*(1+1e-6) + 1e-7 + 1e-12
	return [2]*grid.Sliver{
		grid.NewSliver(theta, eps, admit),
		grid.NewSliver(theta-math.Pi/4, eps, admit),
	}
}

// scanStream scans k = kLo..kHi on both phase grids, the way gridsynth.Rz
// does (one Sliver per grid, reused across k), and hashes each scan's k,
// grid, candidates and completion flag.
func scanStream(theta, eps float64, kLo, kHi int) scanGoldenEntry {
	slivers := rzSlivers(theta, eps)
	e := scanGoldenEntry{Theta: hexBits(theta), Eps: eps, KLo: kLo, KHi: kHi}
	h := sha256.New()
	buf := make([]byte, 0, 4096)
	for k := kLo; k <= kHi; k++ {
		for g, sl := range slivers {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(k))
			buf = append(buf, byte(g))
			done := sl.Scan(k, func(c grid.Candidate) bool {
				e.Candidates++
				for _, x := range [4]int64{c.U.A, c.U.B, c.U.C, c.U.D} {
					buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
				}
				if len(buf) >= 4000 {
					h.Write(buf)
					buf = buf[:0]
				}
				return true
			})
			if done {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	h.Write(buf)
	e.SHA = hex.EncodeToString(h.Sum(nil))
	return e
}

// scanGoldenCases returns the recorded cases in file order: the sweep at
// each ε with its k range still to fill, then the dense case.
func scanGoldenCases() []scanGoldenEntry {
	var cases []scanGoldenEntry
	for _, eps := range scanGoldenEps {
		for _, theta := range scanGoldenAngles() {
			cases = append(cases, scanGoldenEntry{Theta: hexBits(theta), Eps: eps, KHi: -1})
		}
	}
	for _, theta := range scanGoldenDense {
		cases = append(cases, scanGoldenEntry{Theta: hexBits(theta), Eps: 1e-6, KLo: 38, KHi: 38})
	}
	return cases
}

func hexBits(x float64) string { return strconv.FormatUint(math.Float64bits(x), 16) }

func parseTheta(t *testing.T, s string) float64 {
	t.Helper()
	b, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	return math.Float64frombits(b)
}

// TestScanGolden replays the recorded scans and requires the same stream.
func TestScanGolden(t *testing.T) {
	data, err := os.ReadFile(scanGoldenFile)
	if os.IsNotExist(err) {
		recordScanGolden(t)
		t.Fatalf("recorded %s; run again to check against it", scanGoldenFile)
	}
	if err != nil {
		t.Fatal(err)
	}
	var entries []scanGoldenEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	cases := scanGoldenCases()
	if len(entries) != len(cases) {
		t.Fatalf("%s has %d entries, want %d", scanGoldenFile, len(entries), len(cases))
	}
	step := 1
	if grid.RaceEnabled {
		step = 9
	}
	for i, want := range entries {
		if want.Theta != cases[i].Theta || want.Eps != cases[i].Eps {
			t.Fatalf("entry %d is θ=%s ε=%v, want θ=%s ε=%v", i, want.Theta, want.Eps, cases[i].Theta, cases[i].Eps)
		}
		if i%step != 0 && i < len(entries)-len(scanGoldenDense) {
			continue
		}
		if got := scanStream(parseTheta(t, want.Theta), want.Eps, want.KLo, want.KHi); got != want {
			t.Errorf("Scan stream changed:\n got %+v\nwant %+v", got, want)
		}
	}
}

// recordScanGolden writes the file, taking each sweep's k range from the
// k gridsynth.Rz solves at.
func recordScanGolden(t *testing.T) {
	cases := scanGoldenCases()
	for i, c := range cases {
		theta := parseTheta(t, c.Theta)
		if c.KHi < 0 {
			r, err := gridsynth.Rz(theta, c.Eps, gridsynth.Options{})
			if err != nil {
				t.Fatalf("Rz(%v, %v): %v", theta, c.Eps, err)
			}
			c.KHi = r.K + 2
		}
		cases[i] = scanStream(theta, c.Eps, c.KLo, c.KHi)
	}
	data, err := json.MarshalIndent(cases, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(scanGoldenFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(scanGoldenFile, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSliverScan times the scan alone: one op scans every k up to the
// one gridsynth.Rz solves at, in full, on both phase grids, for one of
// BenchmarkRz's five angles in turn.
func BenchmarkSliverScan(b *testing.B) {
	for _, tc := range []struct {
		name string
		eps  float64
	}{{"1e-5", 1e-5}, {"1e-6", 1e-6}} {
		eps := tc.eps
		b.Run(tc.name, func(b *testing.B) {
			type rz struct {
				slivers [2]*grid.Sliver
				k       int
			}
			var rzs []rz
			for i := 0; i < 5; i++ {
				theta := 1.0 + float64(i)*0.21
				r, err := gridsynth.Rz(theta, eps, gridsynth.Options{})
				if err != nil {
					b.Fatal(err)
				}
				rzs = append(rzs, rz{rzSlivers(theta, eps), r.K})
			}
			for i := 0; b.Loop(); i++ {
				c := rzs[i%len(rzs)]
				for k := 0; k <= c.k; k++ {
					for _, sl := range c.slivers {
						sl.Scan(k, func(grid.Candidate) bool { return true })
					}
				}
			}
		})
	}
}
