package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// compareRuns reads two -out files — runs of the parent and of a change,
// same seed and settings — and prints one row per workload × end-to-end
// metric with its verdict under the bounds in BENCHMARK.json, then the
// outputs fingerprints, then the per-layer medians side by side.
func compareRuns(w io.Writer, sp *spec, basePath, changePath string) error {
	base, err := readRuns(basePath)
	if err != nil {
		return err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return err
	}
	if len(base) == 0 || len(change) == 0 {
		return fmt.Errorf("need at least one run on each side (%d base, %d change)", len(base), len(change))
	}
	fmt.Fprintf(w, "base %s: %d runs on %s; change %s: %d runs on %s\n",
		basePath, len(base), describe(base[0].Machine), changePath, len(change), describe(change[0].Machine))
	fmt.Fprintf(w, "%-19s %-24s %-28s %-28s %8s %9s  %s\n",
		"workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "delta", "pairs won", "verdict")
	for _, wl := range sp.Workloads {
		for _, ms := range sp.EndToEnd {
			bv, cv := series(base, wl.Name, 0, ms.Name), series(change, wl.Name, 0, ms.Name)
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			v := judge(ms, bv, cv)
			won := "-"
			if v.pairs >= minPairs {
				won = fmt.Sprintf("%d/%d", v.wins, v.pairs)
			}
			fmt.Fprintf(w, "%-19s %-24s %-28s %-28s %+7.2f%% %9s  %s\n", wl.Name, ms.Name,
				spreadString(bv), spreadString(cv), 100*(v.cm-v.bm)/v.bm, won, v.verdict)
		}
		fb, fc := failures(base, wl.Name), failures(change, wl.Name)
		if fc > fb {
			fmt.Fprintf(w, "%-19s failed ops rose from %d to %d: no gain counts\n", wl.Name, fb, fc)
		}
	}
	fmt.Fprintln(w)
	for _, wl := range sp.Workloads {
		shas := map[string]bool{}
		for _, docs := range [][]runDoc{base, change} {
			for _, d := range docs {
				for _, wr := range d.Workloads {
					if wr.Workload == wl.Name {
						shas[wr.OutputsSHA] = true
					}
				}
			}
		}
		state := "identical across every run"
		if len(shas) > 1 {
			state = fmt.Sprintf("DIFFER (%d distinct fingerprints)", len(shas))
		}
		fmt.Fprintf(w, "%-19s outputs %s\n", wl.Name, state)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-19s %-32s %14s %14s\n", "workload", "per-layer metric", "base median", "change median")
	for _, wl := range sp.Workloads {
		for _, ms := range sp.PerLayer {
			bv, cv := series(base, wl.Name, 1, ms.Name), series(change, wl.Name, 1, ms.Name)
			if len(bv) == 0 || len(cv) == 0 || (quantile(bv, 0.5) == 0 && quantile(cv, 0.5) == 0) {
				continue
			}
			fmt.Fprintf(w, "%-19s %-32s %14.6g %14.6g\n", wl.Name, ms.Name+" ("+ms.Unit+")", quantile(bv, 0.5), quantile(cv, 0.5))
		}
	}
	return nil
}

// minPairs is how many parent/change pairs a claimed gain needs.
const minPairs = 10

// verdict is one workload × metric comparison.
type verdict struct {
	bm, cm      float64 // medians
	pairs, wins int
	verdict     string
}

// judge compares the change's runs of one metric with the parent's:
//
//   - for an exact metric, one that reads the same in every run on each
//     side (t_per_rotation over the fixed quality corpus), any difference
//     is a difference in outputs, not noise: worse or improved by its
//     direction, whatever the bound;
//   - worse: the change's median is worse than the parent's by more than
//     the metric's bound;
//   - unresolved: the parent's own spread (quartile distance over median)
//     exceeds the bound, unless every change run reads better than every
//     parent run;
//   - improved: with at least minPairs pairs (run i of each side), the
//     change wins nine tenths of them, ties counting for neither, and the
//     medians differ by more than the parent's quartile distance;
//   - unchanged otherwise.
func judge(ms metricSpec, bv, cv []float64) verdict {
	v := verdict{bm: quantile(bv, 0.5), cm: quantile(cv, 0.5)}
	better := func(a, b float64) bool { // a reads better than b
		if ms.Better == "higher" {
			return a > b
		}
		return a < b
	}
	q := quartiles(bv)
	iqr := q[2] - q[0]
	worse := (v.cm - v.bm) / v.bm
	if ms.Better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, c := range cv {
		for _, b := range bv {
			allBetter = allBetter && better(c, b)
		}
	}
	v.pairs = min(len(bv), len(cv))
	for i := range v.pairs {
		if better(cv[i], bv[i]) {
			v.wins++
		}
	}
	exact := slices.Min(bv) == slices.Max(bv) && slices.Min(cv) == slices.Max(cv)
	switch {
	case exact && v.cm != v.bm:
		v.verdict = "improved"
		if better(v.bm, v.cm) {
			v.verdict = "worse"
		}
	case worse > ms.Bound:
		v.verdict = "worse"
	case iqr/math.Abs(v.bm) > ms.Bound && !allBetter:
		v.verdict = "unresolved"
	case v.pairs >= minPairs && float64(v.wins) >= 0.9*float64(v.pairs) && better(v.cm, v.bm) && math.Abs(v.cm-v.bm) > iqr:
		v.verdict = "improved"
	default:
		v.verdict = "unchanged"
	}
	return v
}

// series collects one metric of one workload across runs, in run order.
func series(docs []runDoc, workload string, traced int, metric string) []float64 {
	var out []float64
	for _, d := range docs {
		for _, wr := range d.Workloads {
			if wr.Workload == workload && wr.Trace == traced && wr.Result != nil {
				if mv, ok := wr.Result.Metrics[metric]; ok {
					out = append(out, mv.Value)
				}
			}
		}
	}
	return out
}

func failures(docs []runDoc, workload string) int {
	n := 0
	for _, d := range docs {
		for _, wr := range d.Workloads {
			if wr.Workload == workload && wr.Result != nil {
				n += wr.Result.Failed
			}
		}
	}
	return n
}

func spreadString(xs []float64) string {
	q := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", quantile(xs, 0.5), q[0], q[2])
}

func describe(m machine) string {
	commit := m.Commit
	if len(commit) > 12 {
		commit = commit[:12]
	}
	if m.Modified {
		commit += "+dirty"
	}
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, %s", commit, m.NProc, m.GOMAXPROCS, m.GoVersion)
}
