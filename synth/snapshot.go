package synth

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/circuit"
	"repro/internal/gates"
)

// SnapshotVersion is the on-disk snapshot format version. LoadSnapshot
// rejects files written by an incompatible future format instead of
// guessing at their contents.
const SnapshotVersion = 1

// snapshotFile is the persisted form of a Cache: the format version plus
// every live entry, ordered least- to most-recently used (per shard), so a
// reload reconstructs recency by replaying Puts in file order. Counters
// are process statistics and are deliberately not persisted — a restarted
// daemon starts its accounting at zero with a warm entry set.
type snapshotFile struct {
	Version int      `json:"version"`
	Entries []Record `json:"entries"`
}

// Record is one (Key, Entry) pair as it travels outside the process: an
// element of a snapshot file, and so also of a cluster peer's seed stream
// and owner push (both snapshots), and a peer's answer to a one-key
// lookup. The gate sequence is stored as space-separated mnemonics
// (gates.Sequence.String), the one stable, human-auditable spelling the
// gates package already round-trips.
type Record struct {
	Gate    uint8   `json:"gate"`
	A       int64   `json:"a"`
	B       int64   `json:"b,omitempty"`
	C       int64   `json:"c,omitempty"`
	Eps     int64   `json:"eps"`
	Cfg     int64   `json:"cfg"`
	Scope   string  `json:"scope"`
	Seq     string  `json:"seq"`
	Err     float64 `json:"err"`
	Backend string  `json:"backend,omitempty"`
}

// NewRecord flattens k → e.
func NewRecord(k Key, e Entry) Record {
	return Record{
		Gate:    uint8(k.Gate),
		A:       k.A,
		B:       k.B,
		C:       k.C,
		Eps:     k.Eps,
		Cfg:     k.Cfg,
		Scope:   k.Scope,
		Seq:     e.Seq.String(),
		Err:     e.Err,
		Backend: e.Backend,
	}
}

// Decode is the one place an entry from outside the process becomes a
// cache entry. It refuses a record whose sequence does not parse, and one
// with no sequence at all: Sequence.String spells the empty sequence "I",
// so a blank seq is a truncated or foreign record, and storing it would
// serve the identity as the answer for its rotation. It also refuses an
// err outside [0, 1], the range of the distance it reports (Eq. (2),
// qmat.Distance): such a record would be served with an impossible error.
func (r Record) Decode() (Key, Entry, error) {
	if strings.TrimSpace(r.Seq) == "" {
		return Key{}, Entry{}, errors.New("record has no seq")
	}
	if !(r.Err >= 0 && r.Err <= 1) {
		return Key{}, Entry{}, fmt.Errorf("record err %v outside [0, 1]", r.Err)
	}
	seq, err := gates.Parse(r.Seq)
	if err != nil {
		return Key{}, Entry{}, fmt.Errorf("record seq: %w", err)
	}
	k := Key{
		Gate:  circuit.GateType(r.Gate),
		A:     r.A,
		B:     r.B,
		C:     r.C,
		Eps:   r.Eps,
		Cfg:   r.Cfg,
		Scope: r.Scope,
	}
	return k, Entry{Seq: seq, Err: r.Err, Backend: r.Backend}, nil
}

// WriteSnapshot writes recs, in order, as a versioned snapshot — the
// format Cache.Snapshot persists and Cache.LoadSnapshot reads back.
func WriteSnapshot(w io.Writer, recs []Record) error {
	if err := json.NewEncoder(w).Encode(snapshotFile{Version: SnapshotVersion, Entries: recs}); err != nil {
		return fmt.Errorf("synth: encoding snapshot: %w", err)
	}
	return nil
}

// Snapshot writes the cache's live entries to w as versioned JSON — the
// persistence tier synthd flushes on graceful shutdown and reloads at
// start, so synthesized sequences survive restarts. Entries are emitted
// least-recently-used first, round-robin across shards, so every shard's
// hottest entries cluster at the file's tail: LoadSnapshot replays the
// file in order as Puts, and a reload into a cache with a different shard
// count or a smaller capacity keeps (approximately — recency is ranked
// per shard, not globally timestamped) the most-recently-used entries.
// Concurrent Get/Put during a snapshot are safe; the snapshot then
// reflects some interleaving of them.
func (c *Cache) Snapshot(w io.Writer) error {
	// Collect each shard LRU→MRU, then interleave by recency rank.
	perShard := make([][]Record, len(c.shards))
	maxLen := 0
	for i, s := range c.shards {
		s.mu.Lock()
		for el := s.ll.Back(); el != nil; el = el.Prev() {
			n := el.Value.(*cacheNode)
			perShard[i] = append(perShard[i], NewRecord(n.k, n.e))
		}
		s.mu.Unlock()
		if len(perShard[i]) > maxLen {
			maxLen = len(perShard[i])
		}
	}
	var recs []Record
	// Rank r of every shard before rank r+1 of any; shards shorter than
	// maxLen pad from the cold end (their entries are all relatively hot).
	for r := 0; r < maxLen; r++ {
		for i := range perShard {
			if off := len(perShard[i]) - maxLen + r; off >= 0 {
				recs = append(recs, perShard[i][off])
			}
		}
	}
	return WriteSnapshot(w, recs)
}

// LoadSnapshot merges a snapshot written by WriteSnapshot into the cache,
// returning the number of entries loaded. Entries are replayed in file
// order as ordinary Puts, so recency is reconstructed and a snapshot
// larger than the cache's capacity keeps its most-recently-used tail.
// They are stored quietly: entries that came from outside (a prior run, a
// peer's seed stream or owner push) are never re-published through a peer
// fill hook. Counters are unaffected: loading is not a lookup. A malformed
// file, an unknown format version or any record Decode refuses is an error
// and loads nothing.
func (c *Cache) LoadSnapshot(r io.Reader) (int, error) {
	var sf snapshotFile
	if err := json.NewDecoder(r).Decode(&sf); err != nil {
		return 0, fmt.Errorf("synth: decoding snapshot: %w", err)
	}
	if sf.Version != SnapshotVersion {
		return 0, fmt.Errorf("synth: snapshot version %d, want %d", sf.Version, SnapshotVersion)
	}
	// Decode every record before inserting any, so a corrupt file really
	// does load nothing rather than leaving a partial entry set behind.
	keys := make([]Key, len(sf.Entries))
	entries := make([]Entry, len(sf.Entries))
	for i, rec := range sf.Entries {
		k, e, err := rec.Decode()
		if err != nil {
			return 0, fmt.Errorf("synth: snapshot entry %d: %w", i, err)
		}
		keys[i], entries[i] = k, e
	}
	for i, k := range keys {
		c.putQuiet(k, entries[i])
	}
	return len(keys), nil
}

// SaveFile atomically writes the snapshot to path (see WriteFileAtomic),
// so a crash mid-write never truncates an existing good snapshot.
func (c *Cache) SaveFile(path string) error { return WriteFileAtomic(path, c.Snapshot) }

// WriteFileAtomic replaces the file at path with what write emits: the
// bytes are staged in a temporary file in the same directory, fsynced,
// and renamed into place (without the fsync, delayed allocation could
// leave a zero-length file at path after a power loss shortly
// post-rename). If write or any step fails, the file at path is left as
// it was and the temporary file is removed. The cache snapshot and the
// obs statistics sidecar both persist through it.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("synth: staging snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("synth: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("synth: flushing snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("synth: installing snapshot: %w", err)
	}
	return nil
}

// LoadFile merges the snapshot at path into the cache, returning the entry
// count loaded. Callers that treat a missing file as a cold start should
// test the error with os.IsNotExist / errors.Is(err, fs.ErrNotExist).
func (c *Cache) LoadFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return c.LoadSnapshot(f)
}
