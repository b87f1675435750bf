package optimize_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/circuit"
	"repro/optimize"
)

// goldenFile pins the optimizer's outputs: the default Driver, and each
// default rule driven alone, over random Clifford+T circuits and lowered
// circuit families (fixtures_test.go). It was recorded before the rules'
// allocation-free parity keys and gate-specialized exact products, which
// TestDriverGolden therefore shows to be output-neutral. To re-record
// after a change meant to alter outputs, delete the file and run the
// test: that run records it and fails, so it cannot pass unchecked.
const goldenFile = "testdata/driver_golden.json"

type goldenCase struct {
	Name       string    `json:"name"`
	InputSHA   string    `json:"input_sha"`
	Driver     goldenRun `json:"driver"`
	FoldPhases goldenRun `json:"foldphases"`
	Peephole   goldenRun `json:"peephole"`
}

// goldenRun is one Driver run: the sha256 of its optimized ops (see
// opsSHA), its counts and what the driver reported.
type goldenRun struct {
	SHA        string         `json:"sha"`
	TCount     int            `json:"t"`
	Clifford   int            `json:"clifford"`
	Iterations int            `json:"iterations"`
	RuleHits   map[string]int `json:"rule_hits"`
}

func goldenRunOf(t *testing.T, c *circuit.Circuit, rules ...optimize.Optimizer) goldenRun {
	t.Helper()
	res, err := optimize.Run(c, rules...)
	if err != nil {
		t.Fatal(err)
	}
	return goldenRun{
		SHA:        opsSHA(res.Circuit),
		TCount:     res.After.TCount,
		Clifford:   res.After.Clifford,
		Iterations: res.Iterations,
		RuleHits:   res.RuleHits,
	}
}

func goldenCaseOf(t *testing.T, f fixture) goldenCase {
	return goldenCase{
		Name:       f.name,
		InputSHA:   opsSHA(f.c),
		Driver:     goldenRunOf(t, f.c),
		FoldPhases: goldenRunOf(t, f.c, optimize.FoldPhases()),
		Peephole:   goldenRunOf(t, f.c, optimize.NewPeephole(0)),
	}
}

// TestDriverGolden replays every recorded case. Under -race, where
// lowering through gridsynth is many times slower, it replays the random
// Clifford+T cases only.
func TestDriverGolden(t *testing.T) {
	data, err := os.ReadFile(goldenFile)
	if os.IsNotExist(err) {
		recordGolden(t)
		t.Fatalf("recorded %s; run again to check against it", goldenFile)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	fixtures := randomFixtures()
	if !raceEnabled {
		fixtures = append(fixtures, loweredFixtures(t)...)
	}
	byName := map[string]goldenCase{}
	for _, w := range want {
		byName[w.Name] = w
	}
	for _, f := range fixtures {
		w, ok := byName[f.name]
		if !ok {
			t.Errorf("%s: no recorded case", f.name)
			continue
		}
		if sha := opsSHA(f.c); sha != w.InputSHA {
			t.Errorf("%s: the input itself changed (sha %s, recorded %s); re-record only if that was meant", f.name, sha, w.InputSHA)
			continue
		}
		if got := goldenCaseOf(t, f); !reflect.DeepEqual(got, w) {
			t.Errorf("%s:\n got %+v\nwant %+v", f.name, got, w)
		}
	}
}

func recordGolden(t *testing.T) {
	var cases []goldenCase
	for _, f := range append(randomFixtures(), loweredFixtures(t)...) {
		cases = append(cases, goldenCaseOf(t, f))
	}
	data, err := json.MarshalIndent(cases, "", "  ")
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
