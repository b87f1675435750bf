package serve_test

import (
	"context"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/synth/serve"
)

var (
	seriesRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{([^}]*)\})? (\S+)$`)
	labelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"$`)
)

// promSeries is one parsed exposition line.
type promSeries struct {
	name   string
	labels map[string]string
	value  float64
	line   string
}

// parseExposition parses the Prometheus text format strictly enough to
// catch the ways a hand-rolled exporter goes wrong: malformed lines,
// unparsable values, series without TYPE metadata, duplicate series.
func parseExposition(t *testing.T, text string) ([]promSeries, map[string]string) {
	t.Helper()
	var series []promSeries
	types := map[string]string{} // family -> counter|gauge|histogram
	seen := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) < 3 || (f[1] != "HELP" && f[1] != "TYPE") {
				t.Fatalf("malformed comment line %q", line)
			}
			if f[1] == "TYPE" {
				types[f[2]] = f[3]
			}
			continue
		}
		m := seriesRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed series line %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("unparsable value in %q: %v", line, err)
		}
		labels := map[string]string{}
		if m[2] != "" {
			for _, pair := range strings.Split(m[2], ",") {
				if !labelRe.MatchString(pair) {
					t.Fatalf("malformed label %q in %q", pair, line)
				}
				k, val, _ := strings.Cut(pair, "=")
				labels[k] = val[1 : len(val)-1]
			}
		}
		key := m[1] + "{" + m[2] + "}"
		if seen[key] {
			t.Fatalf("duplicate series %q", key)
		}
		seen[key] = true
		series = append(series, promSeries{name: m[1], labels: labels, value: v, line: line})
	}
	return series, types
}

// family strips the histogram suffix so _bucket/_sum/_count map to their
// TYPE line.
func family(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// labelsetKey canonicalizes a labelset minus "le" — the identity of one
// histogram series.
func labelsetKey(labels map[string]string) string {
	ks := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			ks = append(ks, k)
		}
	}
	sort.Strings(ks)
	var b strings.Builder
	for _, k := range ks {
		b.WriteString(k + "=" + labels[k] + ",")
	}
	return b.String()
}

// TestMetricsWellFormed scrapes /metrics after mixed traffic and lints
// the whole exposition: every series parses and has TYPE metadata, every
// histogram has monotone cumulative buckets ending in +Inf, and +Inf
// agrees with _count. This is the scrape a real Prometheus would ingest,
// so a formatting regression in any exporter path fails here.
func TestMetricsWellFormed(t *testing.T) {
	_, cl := newTestServer(t, serve.Config{DefaultBackend: "gridsynth"})
	ctx := context.Background()
	if _, err := cl.Compile(ctx, serve.CompileRequest{QASM: testQASM, Eps: 0.3}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Compile(ctx, serve.CompileRequest{QASM: testQASM, Eps: 0.3}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Synthesize(ctx, serve.SynthesizeRequest{
		Backend:   "gridsynth",
		Eps:       1e-3,
		Rotations: []serve.Rotation{{Gate: "rz", Params: [3]float64{0.41}}},
	}); err != nil {
		t.Fatal(err)
	}

	text, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	series, types := parseExposition(t, text)

	// Every series belongs to a declared family of a known type.
	for _, s := range series {
		typ, ok := types[family(s.name)]
		if !ok {
			t.Fatalf("series %q has no # TYPE line", s.name)
		}
		switch typ {
		case "counter", "gauge", "histogram":
		default:
			t.Fatalf("family %q has unknown type %q", family(s.name), typ)
		}
		if typ != "histogram" && (strings.HasSuffix(s.name, "_bucket") || s.labels["le"] != "") {
			t.Fatalf("non-histogram series %q carries histogram shape", s.line)
		}
	}

	// Histogram invariants, per labelset: cumulative bucket counts are
	// non-decreasing in le, +Inf is present and equals _count, and _sum
	// exists.
	type hist struct {
		les    []float64
		counts map[float64]float64
		inf    float64
		hasInf bool
		count  float64
		hasCnt bool
		hasSum bool
	}
	hists := map[string]map[string]*hist{} // family -> labelset -> data
	get := func(fam, ls string) *hist {
		if hists[fam] == nil {
			hists[fam] = map[string]*hist{}
		}
		h := hists[fam][ls]
		if h == nil {
			h = &hist{counts: map[float64]float64{}}
			hists[fam][ls] = h
		}
		return h
	}
	for _, s := range series {
		fam := family(s.name)
		if types[fam] != "histogram" {
			continue
		}
		h := get(fam, labelsetKey(s.labels))
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			le := s.labels["le"]
			if le == "" {
				t.Fatalf("bucket series without le: %q", s.line)
			}
			if le == "+Inf" {
				h.inf, h.hasInf = s.value, true
				break
			}
			ub, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("unparsable le in %q: %v", s.line, err)
			}
			h.les = append(h.les, ub)
			h.counts[ub] = s.value
		case strings.HasSuffix(s.name, "_sum"):
			h.hasSum = true
		case strings.HasSuffix(s.name, "_count"):
			h.count, h.hasCnt = s.value, true
		}
	}
	for fam, byLS := range hists {
		for ls, h := range byLS {
			if !h.hasInf || !h.hasCnt || !h.hasSum {
				t.Fatalf("%s{%s}: incomplete histogram (inf=%v count=%v sum=%v)",
					fam, ls, h.hasInf, h.hasCnt, h.hasSum)
			}
			if h.inf != h.count {
				t.Fatalf("%s{%s}: +Inf bucket %g != _count %g", fam, ls, h.inf, h.count)
			}
			sort.Float64s(h.les)
			prev := math.Inf(-1)
			last := 0.0
			for _, ub := range h.les {
				if ub <= prev {
					t.Fatalf("%s{%s}: bucket bounds not strictly increasing at %g", fam, ls, ub)
				}
				prev = ub
				if c := h.counts[ub]; c < last {
					t.Fatalf("%s{%s}: cumulative counts decrease at le=%g (%g < %g)", fam, ls, ub, c, last)
				} else {
					last = c
				}
			}
			if h.inf < last {
				t.Fatalf("%s{%s}: +Inf bucket %g below last finite bucket %g", fam, ls, h.inf, last)
			}
		}
	}

	// The histogram families are present with their labels: the
	// queue-wait split and per-pass times. Per-synthesis times by backend
	// and epsilon decade are the obs quantile gauges checked below.
	if len(hists["synthd_queue_wait_seconds"]) == 0 {
		t.Fatal("synthd_queue_wait_seconds missing")
	}
	foundPass := false
	for ls := range hists["synthd_pass_seconds"] {
		if strings.Contains(ls, "pass=lower") {
			foundPass = true
		}
	}
	if !foundPass {
		t.Fatalf("synthd_pass_seconds missing pass=lower series: %v", hists["synthd_pass_seconds"])
	}
	// Three admitted requests → three queue-wait observations.
	for _, h := range hists["synthd_queue_wait_seconds"] {
		if h.count < 3 {
			t.Fatalf("synthd_queue_wait_seconds count %g, want >= 3", h.count)
		}
	}

	// The fleet-statistics families: per-cell observation counters with
	// the full (backend, eps_band, class) key, cache-hit counters (the
	// warm recompile guarantees at least one), and the sketch quantile
	// gauges for every cell with synthesis wall times.
	var obsCount, obsHits bool
	quantiles := map[string]bool{}
	for _, s := range series {
		full := s.labels["backend"] == "gridsynth" && s.labels["eps_band"] != "" && s.labels["class"] != ""
		switch family(s.name) {
		case "synthd_obs_observations_total":
			if full && s.value > 0 {
				obsCount = true
			}
		case "synthd_obs_cache_hits_total":
			if full && s.value > 0 {
				obsHits = true
			}
		case "synthd_obs_wall_quantile_seconds":
			if full && s.value > 0 {
				quantiles[s.labels["q"]] = true
			}
		}
	}
	if !obsCount {
		t.Fatal("synthd_obs_observations_total missing full-key series")
	}
	if !obsHits {
		t.Fatal("synthd_obs_cache_hits_total missing despite warm recompile")
	}
	for _, q := range []string{"0.5", "0.95", "0.99"} {
		if !quantiles[q] {
			t.Fatalf("synthd_obs_wall_quantile_seconds missing q=%s (got %v)", q, quantiles)
		}
	}
}
