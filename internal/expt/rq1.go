package expt

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/gridsynth"
	"repro/internal/qmat"
	"repro/internal/sim"
)

// rq1Point is one synthesis outcome for the RQ1 scatter.
type rq1Point struct {
	method  string
	scale   int // 1..3 ↔ error regimes 1e-1/1e-2/1e-3
	tCount  int
	cliff   int
	err     float64
	seconds float64
	ok      bool
}

var rq1Eps = [4]float64{0, 1e-1, 1e-2, 1e-3} // indexed by scale

var (
	rq1Mu    sync.Mutex
	rq1Cache = map[string][]rq1Point{}
)

// runRQ1 synthesizes cfg.N Haar-random unitaries with trasyn, gridsynth
// and the annealer at the three scales of Figure 7. Results are cached per
// scale key so fig7 and fig8 share one run within a process.
func runRQ1(cfg Config) []rq1Point {
	cfg = cfg.filled()
	key := fmt.Sprintf("%d/%d/%d/%d", cfg.N, cfg.Samples, cfg.MaxT, cfg.Seed)
	rq1Mu.Lock()
	if pts, ok := rq1Cache[key]; ok {
		rq1Mu.Unlock()
		return pts
	}
	rq1Mu.Unlock()
	pts := computeRQ1(cfg)
	rq1Mu.Lock()
	rq1Cache[key] = pts
	rq1Mu.Unlock()
	return pts
}

func computeRQ1(cfg Config) []rq1Point {
	type job struct{ i, scale int }
	var jobs []job
	for i := 0; i < cfg.N; i++ {
		for s := 1; s <= 3; s++ {
			jobs = append(jobs, job{i, s})
		}
	}
	perJob := make([][]rq1Point, len(jobs))
	parallel(len(jobs), cfg.Workers, func(k int) {
		j := jobs[k]
		u := qmat.HaarRandom(rand.New(rand.NewSource(cfg.Seed + int64(j.i))))
		var local []rq1Point

		// trasyn, Eq. (3) mode: 2·scale tensors of budget m ⇒ T budgets
		// of ~10/20/30 at the default m=5 (the paper's three scales).
		tcfg := cfg.trasynConfig(2*j.scale, 0, cfg.Seed+int64(j.i*7+j.scale))
		tcfg.MinSites = 2 * j.scale
		start := time.Now()
		res := core.Synthesize(u, tcfg)
		local = append(local, rq1Point{
			method: "trasyn", scale: j.scale,
			tCount: res.TCount, cliff: res.Clifford, err: res.Error,
			seconds: time.Since(start).Seconds(), ok: res.Seq != nil,
		})

		// gridsynth (three-rotation U3 decomposition).
		start = time.Now()
		gres, gerr := gridsynth.U3(u, rq1Eps[j.scale], gridsynth.Options{})
		local = append(local, rq1Point{
			method: "gridsynth", scale: j.scale,
			tCount: gres.TCount, cliff: gres.Clifford, err: gres.Error,
			seconds: time.Since(start).Seconds(), ok: gerr == nil,
		})

		// Synthetiq-style annealer, small wall-clock budget.
		start = time.Now()
		ares := anneal.Synthesize(u, rq1Eps[j.scale], anneal.Options{
			Budget: 400 * time.Millisecond,
			Rng:    rand.New(rand.NewSource(cfg.Seed + int64(j.i*13+j.scale))),
		})
		local = append(local, rq1Point{
			method: "synthetiq-like", scale: j.scale,
			tCount: ares.TCount, cliff: ares.Clifford, err: ares.Error,
			seconds: time.Since(start).Seconds(), ok: ares.Success,
		})
		perJob[k] = local
	})
	var points []rq1Point
	for _, pts := range perJob {
		points = append(points, pts...)
	}
	return points
}

// Fig7 regenerates the synthesis-error vs T-count / Clifford-count scatter.
func Fig7(cfg Config) (*Table, error) {
	cfg = cfg.filled()
	points := runRQ1(cfg)
	t := &Table{
		ID:     "fig7",
		Title:  "synthesis error vs T count and Clifford count (RQ1 scatter)",
		Header: []string{"method", "scale", "t_count", "clifford", "error", "found"},
	}
	// Per (method, scale) summary rows first for readability.
	for _, m := range []string{"trasyn", "gridsynth", "synthetiq-like"} {
		for s := 1; s <= 3; s++ {
			var ts, cs, es []float64
			found := 0
			total := 0
			for _, p := range points {
				if p.method != m || p.scale != s {
					continue
				}
				total++
				if !p.ok {
					continue
				}
				found++
				ts = append(ts, float64(p.tCount))
				cs = append(cs, float64(p.cliff))
				es = append(es, p.err)
			}
			if total == 0 {
				continue
			}
			t.Add("MEAN/"+m, s, mean(ts), mean(cs), geomean(es), fmt.Sprintf("%d/%d", found, total))
		}
	}
	for _, p := range points {
		t.Add(p.method, p.scale, p.tCount, p.cliff, p.err, p.ok)
	}
	t.Notes = append(t.Notes,
		"scales 1..3 target errors 1e-1/1e-2/1e-3 (gridsynth thresholds; trasyn T budgets m·scale)",
		fmt.Sprintf("n=%d unitaries; paper uses 1000 with k=40000 on an A100", cfg.N))
	return t, t.WriteCSV(cfg.OutDir)
}

// Tab1 regenerates Table 1: T and Clifford reductions at the tightest
// scale, with gridsynth matched to the error each trasyn run reached.
func Tab1(cfg Config) (*Table, error) {
	cfg = cfg.filled()
	// Pair trasyn and gridsynth per unitary at the tightest scale, in
	// parallel across unitaries with deterministic per-index seeds.
	type pair struct {
		ok             bool
		tRatio, cRatio float64
		trasynErr      float64
	}
	pairs := make([]pair, cfg.N)
	parallel(cfg.N, cfg.Workers, func(i int) {
		u := qmat.HaarRandom(rand.New(rand.NewSource(cfg.Seed + int64(i))))
		tcfg := cfg.trasynConfig(6, 0, cfg.Seed+int64(i*7+3))
		tcfg.MinSites = 6
		res := core.Synthesize(u, tcfg)
		// Match gridsynth's threshold to the error trasyn achieved so
		// the comparison is at "similar approximation errors" (§4.1).
		geps := res.Error
		if geps < 1e-4 {
			geps = 1e-4
		}
		if geps > 0.5 {
			geps = 0.5
		}
		gres, err := gridsynth.U3(u, geps, gridsynth.Options{})
		if err != nil || res.Seq == nil || res.TCount == 0 || gres.TCount == 0 {
			return
		}
		pairs[i] = pair{
			ok:        true,
			tRatio:    float64(gres.TCount) / float64(res.TCount),
			cRatio:    float64(gres.Clifford) / math.Max(1, float64(res.Clifford)),
			trasynErr: res.Error,
		}
	})
	var tRatios, cRatios, errs []float64
	for _, p := range pairs {
		if p.ok {
			tRatios = append(tRatios, p.tRatio)
			cRatios = append(cRatios, p.cRatio)
			errs = append(errs, p.trasynErr)
		}
	}
	t := &Table{
		ID:     "tab1",
		Title:  "T and Clifford count reductions of trasyn vs gridsynth at matched error",
		Header: []string{"quantity", "min", "mean", "geomean", "median", "max"},
	}
	tmin, tmax := minMax(tRatios)
	cmin, cmax := minMax(cRatios)
	emin, emax := minMax(errs)
	t.Add("t_count", tmin, mean(tRatios), geomean(tRatios), median(tRatios), tmax)
	t.Add("clifford", cmin, mean(cRatios), geomean(cRatios), median(cRatios), cmax)
	t.Add("trasyn_error", emin, mean(errs), geomean(errs), median(errs), emax)
	t.Notes = append(t.Notes,
		"paper (1000 unitaries, A100): T 2.31/3.76/3.74/3.68/6.12; Clifford 3.39/5.77/5.73/5.66/9.41",
		fmt.Sprintf("the paper's Table 1 is at error 1e-3; these runs reached a median error of %.3g (max %.3g), and gridsynth was matched to each",
			median(errs), emax),
		"CPU-scale trasyn budgets give smaller but same-direction reductions; raise -samples/-maxt to approach paper scale")
	return t, t.WriteCSV(cfg.OutDir)
}

// Fig8 regenerates the synthesis-time comparison.
func Fig8(cfg Config) (*Table, error) {
	cfg = cfg.filled()
	points := runRQ1(cfg)
	t := &Table{
		ID:     "fig8",
		Title:  "synthesis time per unitary (and price-adjusted)",
		Header: []string{"method", "scale", "median_s", "mean_s", "price_usd", "found"},
	}
	const cpuUSDPerHour = 1.18 // paper's 24-core EPYC price point
	for _, m := range []string{"trasyn", "gridsynth", "synthetiq-like"} {
		for s := 1; s <= 3; s++ {
			var secs []float64
			found, total := 0, 0
			for _, p := range points {
				if p.method != m || p.scale != s {
					continue
				}
				total++
				if p.ok {
					found++
				}
				secs = append(secs, p.seconds)
			}
			if total == 0 {
				continue
			}
			med := median(secs)
			t.Add(m, s, med, mean(secs), med/3600*cpuUSDPerHour, fmt.Sprintf("%d/%d", found, total))
		}
	}
	t.Notes = append(t.Notes,
		"all methods run on the same CPU here; the paper price-adjusts A100 vs 24-core EPYC",
		"synthetiq-like budget fixed at 0.4s (paper: 10 min limit, mostly exhausted at tight eps)")
	return t, t.WriteCSV(cfg.OutDir)
}

// Fig9 regenerates the logical-vs-synthesis-error tradeoff and the √-fit.
func Fig9(cfg Config) (*Table, error) {
	cfg = cfg.filled()
	epsGrid := []float64{1e-1, 4.6e-2, 2.2e-2, 1e-2, 4.6e-3, 2.2e-3, 1e-3, 4.6e-4, 2.2e-4, 1e-4, 4.6e-5}
	rates := []float64{1e-3, 1e-4, 1e-5, 1e-6, 1e-7}
	n := cfg.N
	rng := rand.New(rand.NewSource(cfg.Seed + 999))
	angles := make([]float64, n)
	for i := range angles {
		angles[i] = rng.Float64()*2*math.Pi - math.Pi
	}
	// infid[e][r] = mean process infidelity at epsGrid[e], rates[r].
	infid := make([][]float64, len(epsGrid))
	parallel(len(epsGrid), cfg.Workers, func(e int) {
		infid[e] = make([]float64, len(rates))
		sums := make([]float64, len(rates))
		count := 0
		for _, th := range angles {
			res, err := gridsynth.Rz(th, epsGrid[e], gridsynth.Options{})
			if err != nil {
				continue
			}
			count++
			target := qmat.Rz(th)
			for r, rate := range rates {
				ch := sim.SequencePTM(res.Seq, rate)
				sums[r] += 1 - sim.ProcessFidelity(target, ch)
			}
		}
		for r := range rates {
			if count > 0 {
				infid[e][r] = sums[r] / float64(count)
			}
		}
	})
	t := &Table{
		ID:     "fig9",
		Title:  "process infidelity vs synthesis error threshold (a) and optimal threshold fit (b)",
		Header: []string{"series", "x", "y"},
	}
	for e, eps := range epsGrid {
		for r, rate := range rates {
			t.Add(fmt.Sprintf("infid@rate=%.0e", rate), eps, infid[e][r])
			_ = r
		}
	}
	// (b) optimal threshold per rate + least-squares fit in log-log.
	var lx, ly []float64
	for r, rate := range rates {
		bestE, bestV := 0, math.Inf(1)
		for e := range epsGrid {
			if infid[e][r] > 0 && infid[e][r] < bestV {
				bestE, bestV = e, infid[e][r]
			}
		}
		opt := epsGrid[bestE]
		t.Add("optimal_eps", rate, opt)
		lx = append(lx, math.Log(rate))
		ly = append(ly, math.Log(opt))
	}
	slope, intercept := linFit(lx, ly)
	t.Add("fit_exponent", "", slope)
	t.Add("fit_coefficient", "", math.Exp(intercept))
	t.Notes = append(t.Notes,
		"paper fit: optimal eps ≈ 1.22·√(logical rate) (exponent 0.5)",
		fmt.Sprintf("measured exponent %.3f, coefficient %.3f over rates 1e-3..1e-7", slope, math.Exp(intercept)))
	return t, t.WriteCSV(cfg.OutDir)
}

func linFit(xs, ys []float64) (slope, intercept float64) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept
}
