package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/synth/obs"
)

// statsPayload is the node-statistics wire form: the GET /v1/peer/stats
// body, and the builder of a public NodeStats. It carries the raw obs
// snapshot rather than rendered cells so the federating node can merge
// sketches losslessly before computing quantiles.
type statsPayload struct {
	Node        string        `json:"node"`
	UptimeMs    int64         `json:"uptime_ms"`
	CacheSize   int           `json:"cache_size"`
	CacheHits   int64         `json:"cache_hits"`
	CacheMisses int64         `json:"cache_misses"`
	Inflight    int           `json:"inflight"`
	QueueDepth  int           `json:"queue_depth"`
	Obs         *obs.Snapshot `json:"obs"`
}

// localStats snapshots this node's service gauges and statistics table.
func (s *Server) localStats() statsPayload {
	st := s.cache.Stats()
	inflight := len(s.sem)
	queued := int(s.pending.Load()) - inflight
	if queued < 0 {
		queued = 0
	}
	return statsPayload{
		Node:        s.nodeName(),
		UptimeMs:    time.Since(s.start).Milliseconds(),
		CacheSize:   st.Size,
		CacheHits:   st.Hits,
		CacheMisses: st.Misses,
		Inflight:    inflight,
		QueueDepth:  queued,
		Obs:         s.obs.Snapshot(),
	}
}

// nodeView renders a wire payload as the public per-node entry.
func nodeView(p statsPayload) NodeStats {
	n := NodeStats{
		Node:        p.Node,
		UptimeMs:    p.UptimeMs,
		CacheSize:   p.CacheSize,
		CacheHits:   p.CacheHits,
		CacheMisses: p.CacheMisses,
		Inflight:    p.Inflight,
		QueueDepth:  p.QueueDepth,
		Cells:       renderCells(p.Obs),
	}
	if total := p.CacheHits + p.CacheMisses; total > 0 {
		n.HitRate = float64(p.CacheHits) / float64(total)
	}
	return n
}

// renderCells converts a snapshot into response rows, quantiles in ms.
func renderCells(sn *obs.Snapshot) []StatsCell {
	if sn == nil {
		return nil
	}
	cells := make([]StatsCell, 0, len(sn.Cells))
	for i := range sn.Cells {
		c := &sn.Cells[i]
		cells = append(cells, StatsCell{
			Backend:     c.Backend,
			EpsBand:     c.EpsBand,
			Class:       c.Class,
			Count:       c.Count,
			CacheHits:   c.Hits,
			Synthesized: c.Synthesized,
			Wins:        c.Wins,
			Losses:      c.Losses,
			Errors:      c.Errors,
			MeanT:       c.MeanT(),
			P50Ms:       ms(c.Wall.Quantile(0.50)),
			P95Ms:       ms(c.Wall.Quantile(0.95)),
			P99Ms:       ms(c.Wall.Quantile(0.99)),
		})
	}
	return cells
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// handleStats serves GET /v1/stats. The local view is free; with
// ?cluster=1 on a clustered node it fans out to every ring peer,
// reports each node's own view, and merges the obs snapshots into the
// fleet view — per-cell counts in Fleet equal the sum across Nodes, and
// quantiles come from the merged sketches. An unreachable or corrupt
// peer degrades to an Error entry; the fleet view then covers the nodes
// that answered.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	local := s.localStats()
	q := r.URL.Query().Get("cluster")
	wantCluster := q != "" && q != "0"
	node := s.cfg.Cluster
	if !wantCluster || node == nil {
		view := nodeView(local)
		writeJSON(w, http.StatusOK, StatsResponse{
			Fleet: fleetView(local.Obs, []NodeStats{view}),
			Nodes: []NodeStats{view},
		})
		return
	}

	nodes := []NodeStats{nodeView(local)}
	snaps := []*obs.Snapshot{local.Obs}
	peers := node.PeerStats(r.Context())
	ids := make([]string, 0, len(peers))
	for id := range peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ps := peers[id]
		if ps.Err != nil {
			nodes = append(nodes, NodeStats{Node: id, Error: ps.Err.Error()})
			continue
		}
		var p statsPayload
		if err := json.Unmarshal(ps.Raw, &p); err != nil {
			nodes = append(nodes, NodeStats{Node: id, Error: fmt.Sprintf("decoding stats: %v", err)})
			continue
		}
		if p.Obs != nil {
			if err := p.Obs.Validate(); err != nil {
				nodes = append(nodes, NodeStats{Node: id, Error: err.Error()})
				continue
			}
			snaps = append(snaps, p.Obs)
		}
		if p.Node == "" {
			p.Node = id
		}
		nodes = append(nodes, nodeView(p))
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Cluster: true,
		Fleet:   fleetView(obs.Merge(snaps...), nodes),
		Nodes:   nodes,
	})
}

// fleetView assembles the merged entry: cells from the merged snapshot,
// service gauges summed over the answering nodes.
func fleetView(merged *obs.Snapshot, nodes []NodeStats) NodeStats {
	f := NodeStats{Node: "fleet", Cells: renderCells(merged)}
	for _, n := range nodes {
		if n.Error != "" {
			continue
		}
		f.CacheSize += n.CacheSize
		f.CacheHits += n.CacheHits
		f.CacheMisses += n.CacheMisses
		f.Inflight += n.Inflight
		f.QueueDepth += n.QueueDepth
	}
	if total := f.CacheHits + f.CacheMisses; total > 0 {
		f.HitRate = float64(f.CacheHits) / float64(total)
	}
	return f
}

// writeObsMetrics appends the fleet-statistics series to a /metrics
// scrape: per-cell observation and cache-hit counts, race outcomes, and
// the sketch quantiles as labeled gauges (a gauge with a q label rather
// than a summary type, which the hand-rolled exposition does not speak).
// Cells come pre-sorted from Snapshot, so scrapes are stable.
func (s *Server) writeObsMetrics(w io.Writer) {
	sn := s.obs.Snapshot()
	if len(sn.Cells) == 0 && sn.Dropped == 0 {
		return
	}
	labels := func(c *obs.CellSnapshot) string {
		return fmt.Sprintf("backend=%q,eps_band=%q,class=%q", c.Backend, c.EpsBand, c.Class)
	}

	fmt.Fprintf(w, "# HELP synthd_obs_observations_total Synthesis observations by backend, epsilon decade and angle class.\n")
	fmt.Fprintf(w, "# TYPE synthd_obs_observations_total counter\n")
	for i := range sn.Cells {
		c := &sn.Cells[i]
		fmt.Fprintf(w, "synthd_obs_observations_total{%s} %d\n", labels(c), c.Count)
	}

	fmt.Fprintf(w, "# HELP synthd_obs_cache_hits_total Observations served from cache, by cell.\n")
	fmt.Fprintf(w, "# TYPE synthd_obs_cache_hits_total counter\n")
	for i := range sn.Cells {
		c := &sn.Cells[i]
		fmt.Fprintf(w, "synthd_obs_cache_hits_total{%s} %d\n", labels(c), c.Hits)
	}

	fmt.Fprintf(w, "# HELP synthd_obs_race_total Race outcomes by cell (win includes non-racing syntheses).\n")
	fmt.Fprintf(w, "# TYPE synthd_obs_race_total counter\n")
	for i := range sn.Cells {
		c := &sn.Cells[i]
		for _, oc := range []struct {
			outcome string
			n       int64
		}{{"win", c.Wins}, {"loss", c.Losses}, {"error", c.Errors}} {
			if oc.n > 0 {
				fmt.Fprintf(w, "synthd_obs_race_total{%s,outcome=%q} %d\n", labels(c), oc.outcome, oc.n)
			}
		}
	}

	fmt.Fprintf(w, "# HELP synthd_obs_wall_quantile_seconds Sketch wall-time quantiles of performed syntheses, by cell (relative error <= 4.4%%).\n")
	fmt.Fprintf(w, "# TYPE synthd_obs_wall_quantile_seconds gauge\n")
	for i := range sn.Cells {
		c := &sn.Cells[i]
		if c.Wall.N == 0 {
			continue
		}
		for _, q := range []struct {
			label string
			v     float64
		}{{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}} {
			fmt.Fprintf(w, "synthd_obs_wall_quantile_seconds{%s,q=%q} %g\n",
				labels(c), q.label, c.Wall.Quantile(q.v).Seconds())
		}
	}

	if sn.Dropped > 0 {
		fmt.Fprintf(w, "# HELP synthd_obs_dropped_total Observations dropped by the cell-table cap.\n")
		fmt.Fprintf(w, "# TYPE synthd_obs_dropped_total counter\n")
		fmt.Fprintf(w, "synthd_obs_dropped_total %d\n", sn.Dropped)
	}
}
