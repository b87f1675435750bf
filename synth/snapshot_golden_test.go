package synth

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/circuit"
	"repro/internal/gates"
)

// snapshotGoldenSHA is the sha256 of the snapshot snapshotGoldenCache
// writes. It pins the on-disk format byte for byte: field names and order,
// omitted zero fields, float spelling, the sequence mnemonics and the
// round-robin recency order across shards.
const snapshotGoldenSHA = "d0ed6ecea372adabe5ce0e6a93b1a788e420c48f23fff5174054b45d493fd335"

// snapshotGoldenCache fills a 4-shard cache with 40 entries that cover
// every shape a snapshot holds: Rz and U3 keys under two scopes, empty and
// non-empty sequences, and entries with and without a backend. A few Gets
// reorder recency so the dump order is not insertion order.
func snapshotGoldenCache() *Cache {
	c := NewCacheSharded(64, 4)
	alphabet := gates.Sequence{gates.H, gates.T, gates.S, gates.Tdg, gates.X, gates.Sdg, gates.Z, gates.Y}
	backends := []string{"", "gridsynth", "trasyn", "sk"}
	for i := 0; i < 40; i++ {
		op := rzOp(float64(i)*0.173 + 0.05)
		if i%3 == 2 {
			op = circuit.Op{G: circuit.U3, P: [3]float64{float64(i) * 0.071, -float64(i) * 0.29, 1.5 + float64(i)*0.013}}
		}
		scope := "gridsynth"
		if i%2 == 1 {
			scope = "auto"
		}
		var seq gates.Sequence
		if i%4 != 0 {
			for j := 0; j < 1+i%7; j++ {
				seq = append(seq, alphabet[(i+3*j)%len(alphabet)])
			}
		}
		c.Put(KeyOf(op, scope, 1e-3*float64(1+i%3), int64(i%5)), Entry{
			Seq:     seq,
			Err:     float64(i)*1.25e-4 + 1e-9,
			Backend: backends[i%len(backends)],
		})
	}
	for _, i := range []int{3, 17, 0, 29} {
		op := rzOp(float64(i)*0.173 + 0.05)
		scope := "gridsynth"
		if i%2 == 1 {
			scope = "auto"
		}
		c.Get(KeyOf(op, scope, 1e-3*float64(1+i%3), int64(i%5)))
	}
	return c
}

// TestSnapshotGoldenBytes: a fixed sharded cache snapshots to the pinned
// bytes, and reloading them gives back every entry unchanged.
func TestSnapshotGoldenBytes(t *testing.T) {
	src := snapshotGoldenCache()
	if src.Shards() != 4 || src.Len() != 40 {
		t.Fatalf("fixture has %d shards, %d entries; want 4, 40", src.Shards(), src.Len())
	}
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != snapshotGoldenSHA {
		t.Errorf("snapshot sha256 = %s, want %s", got, snapshotGoldenSHA)
	}

	dst := NewCacheSharded(64, 4)
	n, err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil || n != 40 {
		t.Fatalf("LoadSnapshot = (%d, %v), want (40, nil)", n, err)
	}
	src.Range(func(k Key, want Entry) bool {
		got, ok := dst.Peek(k)
		if !ok {
			t.Errorf("key %+v missing after reload", k)
			return true
		}
		if got.Seq.String() != want.Seq.String() || got.Err != want.Err || got.Backend != want.Backend {
			t.Errorf("key %+v: reloaded %+v, want %+v", k, got, want)
		}
		return true
	})
	var again bytes.Buffer
	if err := dst.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Error("a reloaded cache does not snapshot to the same bytes")
	}
}
