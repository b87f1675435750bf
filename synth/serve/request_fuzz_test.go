package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/circuit"
	"repro/synth"
)

// decodeRequest decodes a body as the handlers do.
func decodeRequest(data []byte, v any) error {
	return json.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// checkKnobsInRange fails unless the trasyn knobs lie in their documented
// ranges.
func checkKnobsInRange(t *testing.T, samples, tbudget int) {
	t.Helper()
	if samples < 0 || samples > MaxSamples || tbudget < 0 || tbudget > MaxTBudget {
		t.Fatalf("accepted samples %d, tbudget %d outside [0, %d] and [0, %d]", samples, tbudget, MaxSamples, MaxTBudget)
	}
}

// FuzzCompileRequest decodes fuzzed bytes as a /v1/compile body and runs
// every check handleCompile makes before synthesis: the QASM, the trasyn
// knobs' ranges, the backend name and CompileRequest.Pipeline, which
// builds the pipeline without running it. No input may panic, and an
// accepted request must lie within the documented ranges. The seeds run
// with every `go test`; `go test -fuzz FuzzCompileRequest ./synth/serve/`
// searches further.
func FuzzCompileRequest(f *testing.F) {
	const q = `"qasm":"OPENQASM 2.0;\nqreg q[1];\nrz(0.4) q[0];\n"`
	for _, body := range []string{
		`{` + q + `,"eps":0.1,"budget":"weighted","ir":"rz","samples":2000,"tbudget":5,"opt_level":2}`,
		`{` + q + `,"ir":"zx"}`,
		`{` + q + `,"eps":0.1,"budget":"exponential"}`,
		`{` + q + `,"passes":["transpile","optimize-harder"]}`,
		`{` + q + `,"optimizers":["nope"]}`,
		`{` + q + `,"opt_level":-1}`,
		`{` + q + `,"passes":["transpile","lower"],"opt_level":1}`,
		`{` + q + `,"tbudget":25}`,
		`{` + q + `,"samples":1000000000}`,
		`{` + q + `,"samples":1e9}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req CompileRequest
		if decodeRequest(data, &req) != nil || strings.TrimSpace(req.QASM) == "" {
			return
		}
		if checkTrasynKnobs(req.Samples, req.TBudget) != nil {
			return
		}
		if _, err := circuit.ParseQASM(req.QASM); err != nil {
			return
		}
		name := req.Backend
		if name == "" {
			name = "gridsynth"
		}
		if _, ok := synth.Lookup(name); !ok {
			return
		}
		if _, _, err := req.Pipeline(name); err != nil {
			return
		}
		checkKnobsInRange(t, req.Samples, req.TBudget)
		if req.OptLevel < 0 {
			t.Fatalf("accepted opt_level %d", req.OptLevel)
		}
		if len(req.Passes) > 0 && (req.OptLevel > 0 || len(req.Optimizers) > 0 || req.Fuse2Q) {
			t.Fatalf("accepted passes %q together with opt_level %d, optimizers %q or fuse_2q %v",
				req.Passes, req.OptLevel, req.Optimizers, req.Fuse2Q)
		}
	})
}

// FuzzSynthesizeRequest decodes fuzzed bytes as a /v1/synthesize body and
// runs every check handleSynthesize makes before synthesis that needs no
// server: a non-empty batch, the trasyn knobs' ranges and each rotation's
// gate. No input may panic, and an accepted request must lie within the
// documented ranges and name only rx, ry, rz or u3. The seeds run with
// every `go test`; `go test -fuzz FuzzSynthesizeRequest ./synth/serve/`
// searches further.
func FuzzSynthesizeRequest(f *testing.F) {
	const rz = `"rotations":[{"gate":"rz","params":[0.73,0,0]}]`
	for _, body := range []string{
		`{` + rz + `,"eps":0.01,"samples":2000,"tbudget":5}`,
		`{"rotations":[{"gate":"rz","params":[0.73,0,0]},{"gate":"cx","params":[0,0,0]}]}`,
		`{"rotations":[]}`,
		`{` + rz + `,"tbudget":25}`,
		`{` + rz + `,"samples":1000000000}`,
		`{` + rz + `,"samples":1e9}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SynthesizeRequest
		if decodeRequest(data, &req) != nil || len(req.Rotations) == 0 {
			return
		}
		if checkTrasynKnobs(req.Samples, req.TBudget) != nil {
			return
		}
		for _, rot := range req.Rotations {
			if _, err := rot.op(); err != nil {
				return
			}
		}
		checkKnobsInRange(t, req.Samples, req.TBudget)
		for _, rot := range req.Rotations {
			switch strings.ToLower(rot.Gate) {
			case "rx", "ry", "rz", "u3":
			default:
				t.Fatalf("accepted gate %q", rot.Gate)
			}
		}
	})
}
