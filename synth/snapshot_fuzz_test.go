package synth

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/gates"
)

// FuzzLoadSnapshot feeds arbitrary bytes to LoadSnapshot on a fresh
// cache. It must never panic; an error must leave the cache empty (the
// all-or-nothing rule); and an accepted snapshot, written out with
// Snapshot, must load into another fresh cache as the same records,
// which that cache writes out byte for byte. The seeds run with every
// `go test`; `go test -fuzz FuzzLoadSnapshot ./synth/` searches further.
func FuzzLoadSnapshot(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteSnapshot(&valid, []Record{
		NewRecord(snapKey(0), Entry{Seq: gates.Sequence{gates.H, gates.T, gates.S}, Err: 2e-4, Backend: "gridsynth"}),
		NewRecord(snapKey(1), Entry{Seq: gates.Sequence{}, Err: 0}),
	}); err != nil {
		f.Fatal(err)
	}
	v := valid.String()
	f.Add(valid.Bytes())
	f.Add([]byte(v[:len(v)/2]))
	f.Add([]byte(strings.Replace(v, `"version":1`, `"version":2`, 1)))
	f.Add([]byte(strings.Replace(v, `"seq":"H T S"`, `"seq":"H FOO S"`, 1)))
	f.Add([]byte(strings.Replace(v, `"seq":"I"`, `"seq":" "`, 1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCache(0)
		n, err := c.LoadSnapshot(bytes.NewReader(data))
		if err != nil {
			if n != 0 || c.Len() != 0 {
				t.Fatalf("a refused snapshot (%v) loaded %d entries, Len %d", err, n, c.Len())
			}
			return
		}
		var out bytes.Buffer
		if err := c.Snapshot(&out); err != nil {
			t.Fatal(err)
		}
		d := NewCache(0)
		if _, err := d.LoadSnapshot(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("the snapshot of an accepted one does not load: %v\n%s", err, out.Bytes())
		}
		var again bytes.Buffer
		if err := d.Snapshot(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), again.Bytes()) {
			t.Fatalf("reloaded records differ:\n%s\n%s", out.Bytes(), again.Bytes())
		}
	})
}
