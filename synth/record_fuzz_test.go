package synth

import (
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/gates"
)

// FuzzRecordDecode feeds arbitrary JSON to a Record, as a peer's lookup
// answer arrives, and decodes it. Decode must never panic, must refuse an
// err outside [0, 1], and an accepted record, encoded again with
// NewRecord and sent through JSON, must decode to the same key and entry.
// The seeds run with every `go test`; `go test -fuzz FuzzRecordDecode
// ./synth/` searches further.
func FuzzRecordDecode(f *testing.F) {
	valid, err := json.Marshal(NewRecord(snapKey(0), Entry{Seq: gates.Sequence{gates.H, gates.T, gates.S}, Err: 2e-4, Backend: "gridsynth"}))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	const key = `"gate":3,"a":123,"eps":1000,"cfg":7,"scope":"gridsynth"`
	f.Add([]byte(`{` + key + `,"seq":" ","err":0.001}`))       // blank seq
	f.Add([]byte(`{` + key + `,"seq":"H FOO S","err":0.001}`)) // unknown gate token
	f.Add([]byte(`{` + key + `,"seq":"H T","err":-1}`))
	f.Add([]byte(`{` + key + `,"seq":"H T","err":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec Record
		if json.Unmarshal(data, &rec) != nil {
			return
		}
		k, e, err := rec.Decode()
		if err != nil {
			return
		}
		if !(e.Err >= 0 && e.Err <= 1) {
			t.Fatalf("accepted err %v outside [0, 1]", e.Err)
		}
		again, err := json.Marshal(NewRecord(k, e))
		if err != nil {
			t.Fatal(err)
		}
		var rec2 Record
		if err := json.Unmarshal(again, &rec2); err != nil {
			t.Fatal(err)
		}
		k2, e2, err := rec2.Decode()
		if err != nil {
			t.Fatalf("re-encoded record %s refused: %v", again, err)
		}
		if k2 != k || !slices.Equal(e2.Seq, e.Seq) || e2.Err != e.Err || e2.Backend != e.Backend {
			t.Fatalf("record %s decoded to (%+v, %+v), re-encoded as %s to (%+v, %+v)", data, k, e, again, k2, e2)
		}
	})
}
