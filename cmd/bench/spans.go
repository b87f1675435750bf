package main

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"repro/synth/trace"
)

type interval struct{ start, end time.Time }

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// covered is how much of iv the union of kids covers. Each kid is clipped
// to iv first: a child can outlive its parent (an asynchronous owner push
// ends after the request that started it), and concurrent children — auto's
// two racers, the Lower pass's workers — overlap, so their lengths cannot
// simply be summed.
func covered(iv interval, kids []interval) time.Duration {
	cl := make([]interval, 0, len(kids))
	for _, k := range kids {
		if k.start.Before(iv.start) {
			k.start = iv.start
		}
		if k.end.After(iv.end) {
			k.end = iv.end
		}
		if k.end.After(k.start) {
			cl = append(cl, k)
		}
	}
	if len(cl) == 0 {
		return 0
	}
	sort.Slice(cl, func(i, j int) bool { return cl[i].start.Before(cl[j].start) })
	var total time.Duration
	cur := cl[0]
	for _, k := range cl[1:] {
		if k.start.After(cur.end) {
			total += cur.dur()
			cur = k
		} else if k.end.After(cur.end) {
			cur.end = k.end
		}
	}
	return total + cur.dur()
}

// spanNode is one span of a stitched trace: a span's own children plus the
// remote fragments other nodes recorded under the same trace ID.
type spanNode struct {
	sp   *trace.Span
	iv   interval
	kids []*spanNode
}

// newSpanNode copies the tree under sp. Every span in it must have ended.
func newSpanNode(sp *trace.Span) *spanNode {
	n := &spanNode{sp: sp, iv: interval{sp.Start(), sp.Start().Add(sp.Duration())}}
	for _, c := range sp.Children() {
		n.kids = append(n.kids, newSpanNode(c))
	}
	return n
}

// fragmentParent names the span a remote fragment is the far side of: the
// serving node's request root answers the benchmark's HTTP exchange, and a
// peer's get/put handler answers a peer lookup or push.
var fragmentParent = map[string]string{
	"/v1/synthesize": "http.exchange",
	"peer.serve.get": "peer.lookup",
	"peer.serve.put": "peer.push",
}

// graft attaches fragment f under the tightest span named parent whose
// interval contains f's; it reports whether one was found. Fragments carry
// their parent's ID only in unexported fields, so time containment within
// one trace (all nodes share this process's clock) stands in for it.
// Ancestors are not required to contain f: an asynchronous push, and the
// fragment answering it, can end after the request did.
func (n *spanNode) graft(f *spanNode, parent string) bool {
	var best *spanNode
	var find func(*spanNode)
	find = func(c *spanNode) {
		if c.sp.Name() == parent && !f.iv.start.Before(c.iv.start) && !f.iv.end.After(c.iv.end) &&
			(best == nil || c.iv.dur() < best.iv.dur()) {
			best = c
		}
		for _, k := range c.kids {
			find(k)
		}
	}
	find(n)
	if best == nil {
		return false
	}
	best.kids = append(best.kids, f)
	return true
}

// stitch builds root's tree and grafts the fragments of its trace into it
// in order of start time, so a fragment's parent is in the tree before it
// is (the serving node's root starts before the peer fragments that hang
// under its lookups). It returns how many fragments found no parent.
func stitch(root *trace.Span, fragments []*trace.Span) (*spanNode, int) {
	n := newSpanNode(root)
	frags := append([]*trace.Span(nil), fragments...)
	sort.SliceStable(frags, func(i, j int) bool { return frags[i].Start().Before(frags[j].Start()) })
	lost := 0
	for _, f := range frags {
		if !n.graft(newSpanNode(f), fragmentParent[f.Name()]) {
			lost++
		}
	}
	return n, lost
}

// spanAgg is one span name's totals: how many, their summed duration, and
// their summed self time (duration minus what their children cover).
type spanAgg struct {
	count       int
	total, self time.Duration
}

// spanTable aggregates traced ops by span name.
type spanTable struct {
	names map[string]*spanAgg
	// roots and rootWall count the benchmark's own root spans — one per
	// traced op; rootCovered is the part of their wall their children
	// account for.
	roots                 int
	rootWall, rootCovered time.Duration
	// rzScans counts gridsynth Rz searches (spans with gridsynth.k
	// children); kSteps and admitted total their denominator exponents
	// tried and candidates admitted.
	rzScans, kSteps, admitted int
	// lost counts remote fragments that could not be placed.
	lost int
}

func newSpanTable() *spanTable { return &spanTable{names: map[string]*spanAgg{}} }

// addRoot adds one traced op, stitched with its remote fragments.
func (t *spanTable) addRoot(root *trace.Span, fragments []*trace.Span) {
	n, lost := stitch(root, fragments)
	t.lost += lost
	t.roots++
	t.rootWall += n.iv.dur()
	t.rootCovered += covered(n.iv, kidIntervals(n))
	t.walk(n)
}

func kidIntervals(n *spanNode) []interval {
	ivs := make([]interval, len(n.kids))
	for i, k := range n.kids {
		ivs[i] = k.iv
	}
	return ivs
}

func (t *spanTable) walk(n *spanNode) {
	a := t.names[n.sp.Name()]
	if a == nil {
		a = &spanAgg{}
		t.names[n.sp.Name()] = a
	}
	a.count++
	a.total += n.iv.dur()
	a.self += n.iv.dur() - covered(n.iv, kidIntervals(n))
	scan := false
	for _, k := range n.kids {
		if k.sp.Name() == "gridsynth.k" {
			scan = true
			t.kSteps++
			adm, _ := strconv.Atoi(k.sp.Attr("admitted"))
			t.admitted += adm
		}
		t.walk(k)
	}
	if scan {
		t.rzScans++
	}
}

// coverage is the share of the traced ops' wall their children account for.
func (t *spanTable) coverage() float64 { return ratio(t.rootCovered.Seconds(), t.rootWall.Seconds()) }

// share is a span name's total duration over the traced ops' wall.
func (t *spanTable) share(name string) float64 {
	if a := t.names[name]; a != nil {
		return ratio(a.total.Seconds(), t.rootWall.Seconds())
	}
	return 0
}

// selfShare is a span name's self time over the traced ops' wall.
func (t *spanTable) selfShare(name string) float64 {
	if a := t.names[name]; a != nil {
		return ratio(a.self.Seconds(), t.rootWall.Seconds())
	}
	return 0
}

// setGridsynth records the per-search gridsynth counts the spans carry.
func (t *spanTable) setGridsynth(r *run) {
	r.set("gridsynth.k_per_rz", ratio(float64(t.kSteps), float64(t.rzScans)))
	r.set("gridsynth.admitted_per_rz", ratio(float64(t.admitted), float64(t.rzScans)))
}

// print writes the per-name table: count, total and self time, and each
// name's share of the traced ops' wall.
func (t *spanTable) print(w io.Writer) {
	names := make([]string, 0, len(t.names))
	for n := range t.names {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return t.names[names[i]].self > t.names[names[j]].self })
	fmt.Fprintf(w, "span %-22s %8s %12s %12s %8s %8s\n", "name", "count", "total_ms", "self_ms", "share", "self")
	for _, n := range names {
		a := t.names[n]
		fmt.Fprintf(w, "span %-22s %8d %12.3f %12.3f %8.4f %8.4f\n", n, a.count,
			float64(a.total)/1e6, float64(a.self)/1e6, t.share(n), t.selfShare(n))
	}
	fmt.Fprintf(w, "span coverage %.4f over %d roots, %d unplaced fragments\n", t.coverage(), t.roots, t.lost)
}

// ratio is a/b, or 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
