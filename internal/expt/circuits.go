package expt

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/circuit"
	"repro/internal/sim"
	"repro/internal/suite"
	"repro/internal/transpile"
	"repro/optimize"
	"repro/synth"
)

// benchResult holds both workflow outcomes for one benchmark circuit.
type benchResult struct {
	bench   suite.Benchmark
	u3IR    *circuit.Circuit // CX+U3 IR (best setting)
	rzIR    *circuit.Circuit // CX+H+RZ IR (best setting)
	u3Out   *circuit.Circuit // trasyn-lowered
	rzOut   *circuit.Circuit // gridsynth-lowered
	u3Stats synth.PipelineStats
	rzStats synth.PipelineStats
	err     error
}

// lowerOnly builds a synthesis-only pipeline (the Lower pass alone) for an
// already-transpiled IR, sharing the given cache.
func lowerOnly(backend string, req synth.Request, cache *synth.Cache) (*synth.Pipeline, error) {
	return synth.NewPipelineFor(backend,
		synth.WithRequest(req),
		synth.WithCache(cache),
		synth.WithWorkers(1), // outer loop already parallelizes per circuit
		synth.WithPasses(synth.Lower()),
	)
}

// selectBenchmarks subsamples the 192-circuit suite evenly (stable order).
func selectBenchmarks(limit int) []suite.Benchmark {
	all := suite.Suite()
	if limit <= 0 || limit >= len(all) {
		return all
	}
	var out []suite.Benchmark
	step := float64(len(all)) / float64(limit)
	for i := 0; i < limit; i++ {
		out = append(out, all[int(float64(i)*step)])
	}
	return out
}

// runStudy compiles the selected benchmarks through both workflows.
// The per-rotation threshold: trasyn runs at eps (paper: 0.007) with its T
// budget; gridsynth's budget is eps scaled by the U3:Rz rotation ratio so
// circuit-level errors match (§4.3).
func runStudy(cfg Config, eps float64) []benchResult {
	cfg = cfg.filled()
	benches := selectBenchmarks(cfg.BenchLimit)
	results := make([]benchResult, len(benches))
	parallel(len(benches), cfg.Workers, func(i int) {
		b := benches[i]
		r := benchResult{bench: b}
		defer func() { results[i] = r }()
		r.u3IR, _ = transpile.BestSetting(b.Circuit, transpile.BasisU3)
		r.rzIR, _ = transpile.BestSetting(b.Circuit, transpile.BasisRz)
		// trasyn gets one extra tensor and a tighter stop threshold so
		// its realized per-rotation error lands near gridsynth's
		// (gridsynth over-delivers its threshold by ~2.5x on average;
		// the paper's trasyn reports best-found rather than
		// threshold-truncated solutions).
		treq := synth.Request{
			Epsilon: eps * 0.6, TBudget: cfg.MaxT, Tensors: cfg.Sites + 1,
			Samples: cfg.Samples, Seed: synth.Seed(cfg.Seed + int64(i*31)),
		}
		// Per-circuit caches (seeds differ per circuit, so entries
		// must not leak across circuits); repeated angles within a
		// circuit synthesize once. Both workflows lower through a
		// synthesis-only pipeline over their pre-transpiled IR.
		cache := synth.NewCache(0)
		tp, err := lowerOnly("trasyn", treq, cache)
		if err != nil {
			r.err = err
			return
		}
		u3Res, err := tp.Run(context.Background(), r.u3IR)
		if err != nil {
			r.err = err
			return
		}
		r.u3Out, r.u3Stats = u3Res.Circuit, u3Res.Stats
		nU3 := r.u3IR.CountRotations()
		nRz := r.rzIR.CountRotations()
		epsRz := eps
		if nRz > 0 && nU3 > 0 {
			epsRz = eps * float64(nU3) / float64(nRz)
		}
		gp, err := lowerOnly("gridsynth", synth.Request{Epsilon: epsRz}, cache)
		if err != nil {
			r.err = err
			return
		}
		rzRes, err := gp.Run(context.Background(), r.rzIR)
		if err != nil {
			r.err = err
			return
		}
		r.rzOut, r.rzStats = rzRes.Circuit, rzRes.Stats
	})
	return results
}

var (
	studyMu    sync.Mutex
	studyCache map[string][]benchResult
)

// cachedStudy shares one study run across experiments in a process.
func cachedStudy(cfg Config, eps float64) []benchResult {
	cfg = cfg.filled()
	key := fmt.Sprintf("%d/%d/%d/%d/%g", cfg.BenchLimit, cfg.Samples, cfg.MaxT, cfg.Sites, eps)
	studyMu.Lock()
	defer studyMu.Unlock()
	if studyCache == nil {
		studyCache = map[string][]benchResult{}
	}
	if r, ok := studyCache[key]; ok {
		return r
	}
	studyMu.Unlock()
	r := runStudy(cfg, eps)
	studyMu.Lock()
	studyCache[key] = r
	return r
}

const defaultCircuitEps = 0.007 // the paper's RQ3 threshold

// Fig3b regenerates the Rz:U3 rotation-count ratio across the suite.
func Fig3b(cfg Config) (*Table, error) {
	cfg = cfg.filled()
	benches := selectBenchmarks(0) // transpiling is cheap: use all 192
	t := &Table{
		ID:     "fig3b",
		Title:  "ratio of Rz-basis to U3-basis rotation counts after transpilation",
		Header: []string{"benchmark", "category", "rz_rotations", "u3_rotations", "ratio"},
	}
	type rowT struct {
		b      suite.Benchmark
		rz, u3 int
		ratio  float64
	}
	rowsOut := make([]rowT, len(benches))
	parallel(len(benches), cfg.Workers, func(i int) {
		b := benches[i]
		u3, _ := transpile.BestSetting(b.Circuit, transpile.BasisU3)
		rz, _ := transpile.BestSetting(b.Circuit, transpile.BasisRz)
		nU3, nRz := u3.CountRotations(), rz.CountRotations()
		ratio := math.NaN()
		if nU3 > 0 {
			ratio = float64(nRz) / float64(nU3)
		}
		rowsOut[i] = rowT{b, nRz, nU3, ratio}
	})
	var ratios []float64
	for _, r := range rowsOut {
		t.Add(r.b.Name, string(r.b.Category), r.rz, r.u3, r.ratio)
		if !math.IsNaN(r.ratio) {
			ratios = append(ratios, r.ratio)
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("geomean ratio %.3f over %d circuits (values > 1 favor the U3 IR; paper shows up to 2.5x)",
			geomean(ratios), len(ratios)))
	return t, t.WriteCSV(cfg.OutDir)
}

// Fig6 regenerates the best-transpile-setting histogram (16 settings).
func Fig6(cfg Config) (*Table, error) {
	cfg = cfg.filled()
	benches := selectBenchmarks(0)
	// wins[i] lists the settings that reach benches[i]'s fewest rotations.
	wins := make([][]transpile.Setting, len(benches))
	parallel(len(benches), cfg.Workers, func(i int) {
		best := math.MaxInt32
		vals := map[transpile.Setting]int{}
		for _, s := range transpile.AllSettings() {
			n := transpile.OptimizeWith(benches[i].Circuit, s).CountRotations()
			vals[s] = n
			if n < best {
				best = n
			}
		}
		for s, n := range vals {
			if n == best {
				wins[i] = append(wins[i], s)
			}
		}
	})
	counts := map[transpile.Setting]int{}
	for _, ws := range wins {
		for _, s := range ws {
			counts[s]++
		}
	}
	t := &Table{
		ID:     "fig6",
		Title:  "instances where each transpilation setting achieves the fewest rotations",
		Header: []string{"basis", "level", "commutation", "wins"},
	}
	basisName := map[transpile.Basis]string{transpile.BasisRz: "rz", transpile.BasisU3: "u3"}
	rzTotal, u3Total := 0, 0
	for _, s := range transpile.AllSettings() {
		t.Add(basisName[s.Basis], s.Level, s.Commute, counts[s])
		if s.Basis == transpile.BasisRz {
			rzTotal += counts[s]
		} else {
			u3Total += counts[s]
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("u3 settings win %d instances vs rz %d (ties counted for both; paper Fig. 6 shows U3+commutation dominating)", u3Total, rzTotal))
	return t, t.WriteCSV(cfg.OutDir)
}

// Tab2 regenerates the dataset statistics table.
func Tab2(cfg Config) (*Table, error) {
	cfg = cfg.filled()
	stats := suite.DatasetStats(suite.Suite())
	t := &Table{
		ID:     "tab2",
		Title:  "datasets used in the full circuit benchmarks",
		Header: []string{"dataset", "count", "min_qubits", "mean_qubits", "max_qubits", "min_rot", "mean_rot", "max_rot"},
	}
	for _, s := range stats {
		t.Add(s.Dataset, s.Count, s.MinQ, s.MeanQ, s.MaxQ, s.MinRot, s.MeanRot, s.MaxRot)
	}
	t.Notes = append(t.Notes, "generated corpus; paper Table 2 ranges: benchpress 2-395 qubits, hamlib 2-592, qaoa 4-26")
	return t, t.WriteCSV(cfg.OutDir)
}

// Fig10 regenerates the per-category T/T-depth/Clifford reduction ratios.
func Fig10(cfg Config) (*Table, error) {
	cfg = cfg.filled()
	results := cachedStudy(cfg, defaultCircuitEps)
	t := &Table{
		ID:    "fig10",
		Title: "T count, T depth and Clifford reductions of trasyn over gridsynth by category",
		Header: []string{"benchmark", "category", "t_ratio", "tdepth_ratio", "clifford_ratio",
			"log_err_ratio", "u3_rotations", "rz_rotations"},
	}
	perCat := map[string][][3]float64{}
	for _, r := range results {
		if r.err != nil || r.u3Out == nil || r.rzOut == nil {
			continue
		}
		tU3, tRz := r.u3Out.TCount(), r.rzOut.TCount()
		dU3, dRz := r.u3Out.TDepth(), r.rzOut.TDepth()
		cU3, cRz := r.u3Out.CliffordCount(), r.rzOut.CliffordCount()
		if tU3 == 0 || dU3 == 0 || cU3 == 0 {
			continue
		}
		tr := float64(tRz) / float64(tU3)
		dr := float64(dRz) / float64(dU3)
		cr := float64(cRz) / float64(cU3)
		logErrRatio := math.NaN()
		if r.u3Stats.ErrorBound > 0 && r.rzStats.ErrorBound > 0 {
			logErrRatio = math.Log(r.u3Stats.ErrorBound) / math.Log(r.rzStats.ErrorBound)
		}
		cat := string(r.bench.Category)
		perCat[cat] = append(perCat[cat], [3]float64{tr, dr, cr})
		t.Add(r.bench.Name, cat, tr, dr, cr, logErrRatio,
			r.u3IR.CountRotations(), r.rzIR.CountRotations())
	}
	for cat, vals := range perCat {
		var ts, ds, cs []float64
		for _, v := range vals {
			ts = append(ts, v[0])
			ds = append(ds, v[1])
			cs = append(cs, v[2])
		}
		t.Add("GEOMEAN/"+cat, cat, geomean(ts), geomean(ds), geomean(cs), "", "", "")
	}
	t.Notes = append(t.Notes,
		"paper geomeans: T 1.64/1.46/1.09/1.17 and Clifford 2.44/2.88/1.75/2.43 for qaoa/quantum-ham/classical-ham/ft-alg",
		fmt.Sprintf("per-rotation eps=%.3g; gridsynth eps scaled by rotation ratio (paper §4.3)", defaultCircuitEps))
	return t, t.WriteCSV(cfg.OutDir)
}

// Fig2 regenerates the headline reduction-ratio summary.
func Fig2(cfg Config) (*Table, error) {
	cfg = cfg.filled()
	results := cachedStudy(cfg, defaultCircuitEps)
	var tRatios, cRatios, infidRatios []float64
	rng := rand.New(rand.NewSource(cfg.Seed + 5))
	for _, r := range results {
		if r.err != nil || r.u3Out == nil || r.rzOut == nil {
			continue
		}
		if tU3 := r.u3Out.TCount(); tU3 > 0 {
			tRatios = append(tRatios, float64(r.rzOut.TCount())/float64(tU3))
		}
		if cU3 := r.u3Out.CliffordCount(); cU3 > 0 {
			cRatios = append(cRatios, float64(r.rzOut.CliffordCount())/float64(cU3))
		}
		if r.bench.Circuit.N <= cfg.SimQubits {
			// Infidelity vs the ORIGINAL circuit's state: synthesis and
			// logical error combine exactly as in the paper's RQ4 setup.
			nm := sim.NoiseModel{Rate: 1e-5}
			fU3 := sim.ImportanceFidelityVs(r.bench.Circuit, r.u3Out, nm, cfg.FidTrials, rng)
			fRz := sim.ImportanceFidelityVs(r.bench.Circuit, r.rzOut, nm, cfg.FidTrials, rng)
			if iU3 := 1 - fU3; iU3 > 0 {
				infidRatios = append(infidRatios, (1-fRz)/iU3)
			}
		}
	}
	t := &Table{
		ID:     "fig2",
		Title:  "headline reduction ratios (gridsynth / trasyn); >1 favors trasyn",
		Header: []string{"metric", "geomean", "max", "n"},
	}
	_, tmax := minMax(tRatios)
	_, cmax := minMax(cRatios)
	_, imax := minMax(infidRatios)
	t.Add("t_count", geomean(tRatios), tmax, len(tRatios))
	t.Add("clifford", geomean(cRatios), cmax, len(cRatios))
	t.Add("infidelity@1e-5", geomean(infidRatios), imax, len(infidRatios))
	t.Notes = append(t.Notes, "paper geomeans: T 1.38, Clifford 2.44, infidelity 2.07 (1e-5 logical rate)")
	return t, t.WriteCSV(cfg.OutDir)
}

// Fig11 regenerates the absolute circuit-infidelity scatter for trasyn.
func Fig11(cfg Config) (*Table, error) {
	cfg = cfg.filled()
	results := cachedStudy(cfg, defaultCircuitEps)
	t := &Table{
		ID:     "fig11",
		Title:  "circuit synthesis infidelity (trasyn) vs qubits and rotations",
		Header: []string{"benchmark", "dataset", "qubits", "rotations", "error_bound", "infidelity_est"},
	}
	for _, r := range results {
		if r.err != nil || r.u3Out == nil {
			continue
		}
		// Infidelity estimate from the additive error bound: 1-F ≈ (Σε)².
		eb := r.u3Stats.ErrorBound
		t.Add(r.bench.Name, r.bench.Dataset, r.bench.Circuit.N,
			r.u3IR.CountRotations(), eb, eb*eb)
	}
	t.Notes = append(t.Notes, "paper Fig. 11 plots exact state infidelity; the additive unitary-distance bound squares to an infidelity estimate")
	return t, t.WriteCSV(cfg.OutDir)
}

// Fig12 regenerates the trasyn vs BQSKit+gridsynth comparison.
func Fig12(cfg Config) (*Table, error) {
	cfg = cfg.filled()
	results := cachedStudy(cfg, defaultCircuitEps)
	t := &Table{
		ID:     "fig12",
		Title:  "trasyn vs BQSKit-style resynthesis + gridsynth",
		Header: []string{"benchmark", "rot_ratio", "t_ratio"},
	}
	var done []benchResult
	for _, r := range results {
		if r.err == nil && r.u3Out != nil {
			done = append(done, r)
		}
	}
	type rowT struct {
		ok     bool
		rr, tr float64
	}
	rows := make([]rowT, len(done))
	parallel(len(done), cfg.Workers, func(i int) {
		r := done[i]
		bq, err := optimize.ZXZXZ().Optimize(r.u3IR)
		if err != nil {
			return
		}
		nBq, nU3 := bq.CountRotations(), r.u3IR.CountRotations()
		if nU3 == 0 {
			return
		}
		epsRz := defaultCircuitEps * float64(nU3) / math.Max(1, float64(nBq))
		gp, err := lowerOnly("gridsynth", synth.Request{Epsilon: epsRz}, synth.NewCache(0))
		if err != nil {
			return
		}
		lowRes, err := gp.Run(context.Background(), bq)
		if err != nil {
			return
		}
		tr := math.NaN()
		if t := r.u3Out.TCount(); t > 0 {
			tr = float64(lowRes.Circuit.TCount()) / float64(t)
		}
		rows[i] = rowT{true, float64(nBq) / float64(nU3), tr}
	})
	var rotRatios, tRatios []float64
	for i, row := range rows {
		if !row.ok {
			continue
		}
		rotRatios = append(rotRatios, row.rr)
		if !math.IsNaN(row.tr) {
			tRatios = append(tRatios, row.tr)
		}
		t.Add(done[i].bench.Name, row.rr, row.tr)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("geomean rotation ratio %.3f, T ratio %.3f (paper: BQSKit only increases rotations → more T)",
			geomean(rotRatios), geomean(tRatios)))
	return t, t.WriteCSV(cfg.OutDir)
}

// Fig13 regenerates the application-fidelity comparison under logical error.
func Fig13(cfg Config) (*Table, error) {
	cfg = cfg.filled()
	results := cachedStudy(cfg, defaultCircuitEps)
	rates := []float64{1e-4, 1e-5, 1e-6}
	t := &Table{
		ID:     "fig13",
		Title:  "infidelity ratio (gridsynth/trasyn) under logical depolarizing noise",
		Header: []string{"benchmark", "rate", "infid_trasyn", "infid_gridsynth", "ratio"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 77))
	perRate := map[float64][]float64{}
	for _, r := range results {
		if r.err != nil || r.u3Out == nil || r.rzOut == nil || r.bench.Circuit.N > cfg.SimQubits {
			continue
		}
		for _, rate := range rates {
			nm := sim.NoiseModel{Rate: rate} // all non-Pauli gates noisy (RQ4 model)
			fU3 := sim.ImportanceFidelityVs(r.bench.Circuit, r.u3Out, nm, cfg.FidTrials, rng)
			fRz := sim.ImportanceFidelityVs(r.bench.Circuit, r.rzOut, nm, cfg.FidTrials, rng)
			iU3 := 1 - fU3
			iRz := 1 - fRz
			if iU3 <= 0 {
				continue
			}
			ratio := iRz / iU3
			perRate[rate] = append(perRate[rate], ratio)
			t.Add(r.bench.Name, rate, iU3, iRz, ratio)
		}
	}
	for _, rate := range rates {
		t.Add(fmt.Sprintf("GEOMEAN@%.0e", rate), rate, "", "", geomean(perRate[rate]))
	}
	t.Notes = append(t.Notes, "paper: advantage consistent across rates (up to ~4x); noise on all non-Pauli gates")
	return t, t.WriteCSV(cfg.OutDir)
}

// Fig14 regenerates the before/after post-optimization (PyZX-style) ratios,
// driving the public optimize package's fixed-point driver (foldphases +
// peephole at the experiment's enumeration budget).
func Fig14(cfg Config) (*Table, error) {
	cfg = cfg.filled()
	results := cachedStudy(cfg, defaultCircuitEps)
	rules := []optimize.Optimizer{optimize.FoldPhases(), optimize.NewPeephole(cfg.MaxT)}
	postOpt := func(c *circuit.Circuit) *circuit.Circuit {
		res, err := optimize.Run(c, rules...)
		if err != nil {
			return c
		}
		return res.Circuit
	}
	t := &Table{
		ID:     "fig14",
		Title:  "trasyn:gridsynth ratios before and after post-optimization",
		Header: []string{"benchmark", "t_ratio_before", "t_ratio_after", "cliff_ratio_before", "cliff_ratio_after"},
	}
	var done []benchResult
	for _, r := range results {
		if r.err == nil && r.u3Out != nil && r.rzOut != nil && r.u3Out.TCount() > 0 {
			done = append(done, r)
		}
	}
	type rowT struct {
		ok     bool
		b, a   float64 // T ratio before and after
		cb, ca float64 // Clifford ratio before and after
	}
	rows := make([]rowT, len(done))
	parallel(len(done), cfg.Workers, func(i int) {
		r := done[i]
		u3Opt := postOpt(r.u3Out)
		rzOpt := postOpt(r.rzOut)
		if u3Opt.TCount() == 0 {
			return
		}
		rows[i] = rowT{
			ok: true,
			b:  float64(r.rzOut.TCount()) / float64(r.u3Out.TCount()),
			a:  float64(rzOpt.TCount()) / float64(u3Opt.TCount()),
			cb: float64(r.rzOut.CliffordCount()) / math.Max(1, float64(r.u3Out.CliffordCount())),
			ca: float64(rzOpt.CliffordCount()) / math.Max(1, float64(u3Opt.CliffordCount())),
		}
	})
	var before, after []float64
	for i, row := range rows {
		if !row.ok {
			continue
		}
		before = append(before, row.b)
		after = append(after, row.a)
		t.Add(done[i].bench.Name, row.b, row.a, row.cb, row.ca)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("geomean T ratio before %.3f → after %.3f (paper: PyZX cannot reclaim the T advantage)",
			geomean(before), geomean(after)))
	return t, t.WriteCSV(cfg.OutDir)
}
