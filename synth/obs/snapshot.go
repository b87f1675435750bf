package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/synth"
)

// SnapshotVersion is the statistics snapshot format version. A mismatch
// on load is an error the caller degrades from (empty statistics) —
// never a partial or misread install.
const SnapshotVersion = 1

// Snapshot is the serializable (and wire) form of a statistics table:
// the sidecar file persisted next to the cache snapshot, and the payload
// of GET /v1/peer/stats. Merge combines node snapshots losslessly.
type Snapshot struct {
	Version int            `json:"version"`
	Dropped int64          `json:"dropped,omitempty"`
	Cells   []CellSnapshot `json:"cells"`
}

// CellSnapshot is one cell plus its statistics.
type CellSnapshot struct {
	Cell
	CellStats
}

// Validate checks the whole snapshot — version, key vocabulary, counter
// invariants, sketch shape — before any of it is trusted (snapshot
// files and peer stats payloads alike).
func (sn *Snapshot) Validate() error {
	if sn.Version != SnapshotVersion {
		return fmt.Errorf("obs: snapshot version %d, want %d", sn.Version, SnapshotVersion)
	}
	if sn.Dropped < 0 {
		return fmt.Errorf("obs: snapshot dropped %d < 0", sn.Dropped)
	}
	seen := make(map[Cell]bool, len(sn.Cells))
	for i := range sn.Cells {
		c := &sn.Cells[i]
		if c.Backend == "" || c.EpsBand == "" || c.Class == "" {
			return fmt.Errorf("obs: cell %d has empty key %+v", i, c.Cell)
		}
		if seen[c.Cell] {
			return fmt.Errorf("obs: duplicate cell %+v", c.Cell)
		}
		seen[c.Cell] = true
		if err := c.CellStats.validate(); err != nil {
			return fmt.Errorf("obs: cell %+v: %w", c.Cell, err)
		}
	}
	return nil
}

// Merge combines snapshots cell-wise: counters add, sketches merge
// bucket-wise (exactly the sketch of the union stream), so the merged
// view's per-cell counts equal the sum across inputs. Nil inputs are
// skipped. The result is a fresh snapshot, sorted like Stats.Snapshot.
func Merge(snaps ...*Snapshot) *Snapshot {
	cells := map[Cell]*CellStats{}
	out := &Snapshot{Version: SnapshotVersion}
	for _, sn := range snaps {
		if sn == nil {
			continue
		}
		out.Dropped += sn.Dropped
		for i := range sn.Cells {
			c := &sn.Cells[i]
			cs := cells[c.Cell]
			if cs == nil {
				cs = &CellStats{}
				cells[c.Cell] = cs
			}
			cs.merge(&c.CellStats)
		}
	}
	for cell, cs := range cells {
		out.Cells = append(out.Cells, CellSnapshot{Cell: cell, CellStats: *cs})
	}
	sort.Slice(out.Cells, func(i, j int) bool { return out.Cells[i].Cell.less(out.Cells[j].Cell) })
	return out
}

// Write emits the snapshot as JSON.
func (sn *Snapshot) Write(w io.Writer) error {
	return json.NewEncoder(w).Encode(sn)
}

// ReadSnapshot parses and validates a snapshot stream.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var sn Snapshot
	if err := json.NewDecoder(r).Decode(&sn); err != nil {
		return nil, fmt.Errorf("obs: decoding snapshot: %w", err)
	}
	if err := sn.Validate(); err != nil {
		return nil, err
	}
	return &sn, nil
}

// SaveFile atomically writes the table's snapshot to path through
// synth.WriteFileAtomic, the cache snapshot's writer, so a crash mid-save
// leaves the previous file intact.
func (s *Stats) SaveFile(path string) error {
	return synth.WriteFileAtomic(path, s.Snapshot().Write)
}

// LoadFile reads, validates and installs a snapshot file — all before
// replacing any state, so a corrupt or prior-version file leaves the
// table untouched (the caller logs and continues with what it has).
func (s *Stats) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sn, err := ReadSnapshot(f)
	if err != nil {
		return err
	}
	return s.LoadSnapshot(sn)
}
