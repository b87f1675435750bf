package synth

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gates"
)

// snapKey builds a distinct key per index for snapshot tests.
func snapKey(i int) Key {
	return KeyOf(rzOp(float64(i)*0.11+0.03), "snap-test", 1e-3, 7)
}

// TestSnapshotRoundTrip: every entry — key fields, sequence, error,
// backend attribution — survives a dump/load cycle into a fresh cache.
func TestSnapshotRoundTrip(t *testing.T) {
	src := NewCache(64)
	for i := 0; i < 10; i++ {
		src.Put(snapKey(i), Entry{
			Seq:     gates.Sequence{gates.H, gates.T, gates.S, gates.Tdg},
			Err:     float64(i) * 1e-4,
			Backend: "gridsynth",
		})
	}
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	dst := NewCache(64)
	n, err := dst.LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 || dst.Len() != 10 {
		t.Fatalf("loaded %d entries, Len %d, want 10", n, dst.Len())
	}
	for i := 0; i < 10; i++ {
		e, ok := dst.Peek(snapKey(i))
		if !ok {
			t.Fatalf("entry %d missing after reload", i)
		}
		if e.Seq.String() != "H T S Tdg" || e.Err != float64(i)*1e-4 || e.Backend != "gridsynth" {
			t.Fatalf("entry %d corrupted: %+v", i, e)
		}
	}
	// Loading is not a lookup: counters stay untouched.
	if st := dst.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("load perturbed counters: %+v", st)
	}
}

// TestSnapshotPreservesRecency: a snapshot reloaded into a cache too small
// for it keeps the most-recently-used entries and evicts the stale tail.
func TestSnapshotPreservesRecency(t *testing.T) {
	src := NewCache(8)
	for i := 0; i < 8; i++ {
		src.Put(snapKey(i), Entry{Seq: gates.Sequence{gates.T}})
	}
	src.Get(snapKey(0)) // refresh 0 → most recent
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	dst := NewCacheSharded(4, 1) // one shard: exact LRU, capacity for half
	if _, err := dst.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 4 {
		t.Fatalf("Len %d after loading 8 entries into capacity 4", dst.Len())
	}
	if _, ok := dst.Peek(snapKey(0)); !ok {
		t.Fatal("most-recently-used entry lost on reload into smaller cache")
	}
	if _, ok := dst.Peek(snapKey(1)); ok {
		t.Fatal("least-recently-used entry survived reload into smaller cache")
	}
}

// TestSnapshotShardedRecency: the round-robin dump order means a sharded
// snapshot reloaded into a much smaller cache keeps each shard's hottest
// entries — the freshly touched key must survive, the cold bulk must not
// displace it.
func TestSnapshotShardedRecency(t *testing.T) {
	src := NewCacheSharded(4096, 16)
	for i := 0; i < 400; i++ {
		src.Put(snapKey(i), Entry{Seq: gates.Sequence{gates.T}})
	}
	src.Get(snapKey(7)) // make key 7 its shard's MRU
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dst := NewCacheSharded(32, 1)
	if _, err := dst.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 32 {
		t.Fatalf("Len %d, want 32", dst.Len())
	}
	if _, ok := dst.Peek(snapKey(7)); !ok {
		t.Fatal("hottest entry lost reloading a 16-shard snapshot into a 32-entry cache")
	}
}

// TestSnapshotVersionAndCorruption: wrong version and malformed JSON are
// rejected without loading anything.
func TestSnapshotVersionAndCorruption(t *testing.T) {
	c := NewCache(8)
	bad := fmt.Sprintf(`{"version": %d, "entries": []}`, SnapshotVersion+1)
	if _, err := c.LoadSnapshot(strings.NewReader(bad)); err == nil {
		t.Fatal("future snapshot version accepted")
	}
	if _, err := c.LoadSnapshot(strings.NewReader(`{"version": 1, "entries": [{"seq": "NOTAGATE"}]}`)); err == nil {
		t.Fatal("unparsable gate sequence accepted")
	}
	if _, err := c.LoadSnapshot(strings.NewReader(`{nope`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	// An entry without seq would load as the identity for its rotation
	// (the empty sequence is spelled "I", never "").
	noSeq := `{"version": 1, "entries": [{"scope": "s", "seq": "H T"}, {"gate": 3, "a": 123, "eps": 1000, "cfg": 7, "scope": "gridsynth", "err": 0.001}]}`
	if _, err := c.LoadSnapshot(strings.NewReader(noSeq)); err == nil {
		t.Fatal("snapshot entry without seq accepted")
	}
	// A bad entry after good ones must not leave a partial load behind.
	mixed := `{"version": 1, "entries": [{"scope": "s", "seq": "H T"}, {"scope": "s", "a": 1, "seq": "NOTAGATE"}]}`
	if _, err := c.LoadSnapshot(strings.NewReader(mixed)); err == nil {
		t.Fatal("snapshot with one corrupt entry accepted")
	}
	if c.Len() != 0 {
		t.Fatalf("rejected snapshots still loaded %d entries", c.Len())
	}
}

// TestSnapshotFileRoundTrip: SaveFile + LoadFile through a real path, and
// a missing file reports os.IsNotExist for cold-start handling.
func TestSnapshotFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.json")
	src := NewCache(16)
	src.Put(snapKey(1), Entry{Seq: gates.Sequence{gates.H, gates.T}, Err: 1e-5, Backend: "trasyn"})
	if err := src.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Atomic staging leaves no temp litter.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("snapshot dir has %d files, want 1", len(ents))
	}

	dst := NewCache(16)
	if n, err := dst.LoadFile(path); err != nil || n != 1 {
		t.Fatalf("LoadFile = (%d, %v), want (1, nil)", n, err)
	}
	if e, ok := dst.Peek(snapKey(1)); !ok || e.Backend != "trasyn" {
		t.Fatalf("entry missing or corrupted after file round-trip: %+v", e)
	}

	if _, err := dst.LoadFile(filepath.Join(dir, "absent.json")); !os.IsNotExist(err) {
		t.Fatalf("missing snapshot: want IsNotExist, got %v", err)
	}
}

// TestWriteFileAtomicFailure: when the write callback fails partway, the
// error comes back, the previous file stays byte-identical, an absent
// file stays absent, and no temp file is left in the directory.
func TestWriteFileAtomicFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.json")
	src := NewCache(16)
	src.Put(snapKey(1), Entry{Seq: gates.Sequence{gates.H, gates.T}, Err: 1e-5, Backend: "trasyn"})
	if err := src.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	failing := func(w io.Writer) error {
		if _, err := w.Write([]byte(`{"version":1,"entries":[`)); err != nil {
			return err
		}
		return boom
	}
	if err := WriteFileAtomic(path, failing); !errors.Is(err, boom) {
		t.Fatalf("WriteFileAtomic = %v, want the callback's error", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("failed write changed the file:\nbefore %q\nafter  %q", before, after)
	}
	absent := filepath.Join(dir, "absent.json")
	if err := WriteFileAtomic(absent, failing); !errors.Is(err, boom) {
		t.Fatalf("WriteFileAtomic = %v, want the callback's error", err)
	}
	if _, err := os.Stat(absent); !os.IsNotExist(err) {
		t.Fatalf("failed write created %s: %v", absent, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "cache.json" {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only cache.json", names)
	}
}

// TestSnapshotSharded: a snapshot taken from a sharded cache reloads into
// caches with different shard counts without losing entries.
func TestSnapshotSharded(t *testing.T) {
	src := NewCacheSharded(4096, 16)
	if src.Shards() != 16 {
		t.Fatalf("want 16 shards, got %d", src.Shards())
	}
	for i := 0; i < 200; i++ {
		src.Put(snapKey(i), Entry{Seq: gates.Sequence{gates.T}})
	}
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4, 32} {
		dst := NewCacheSharded(4096, shards)
		if n, err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil || n != 200 {
			t.Fatalf("shards=%d: LoadSnapshot = (%d, %v), want (200, nil)", shards, n, err)
		}
		if dst.Len() != 200 {
			t.Fatalf("shards=%d: Len %d, want 200", shards, dst.Len())
		}
	}
}
