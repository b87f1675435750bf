package main

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/gates"
	"repro/internal/mps"
	"repro/internal/qmat"
	"repro/synth"
	"repro/synth/trace"
)

const (
	// u3Eps is u3_single's threshold. Below it trasyn returns some Haar
	// targets outside ε as successes (about a fifth at 1e-2, one in a few
	// hundred at 2e-2) — a defect tracked on its own that would fail runs
	// at random. At 5e-2 every target is met, nearly all by the two-tensor
	// attempt, so one run times hundreds of ops of one kind and its median
	// holds steady from seed to seed.
	u3Eps = 5e-2
	// u3Quality is the size of the quality corpus: the leading targets,
	// drawn at qualitySeed, that every run completes even past its measured
	// time. T counts, the gridsynth ratio and outputs_sha come from these.
	u3Quality = 128
)

// runU3Single is the paper's headline comparison as single-request
// latency: Haar-random U3 targets — the quality corpus, then draws from
// the seed — synthesized one at a time by trasyn with the default Request,
// and gridsynth's three-Rz U3 run on the corpus as an untimed reference.
func runU3Single(ctx context.Context, r *run) error {
	eps, quality := u3Eps, u3Quality
	if r.smoke {
		quality = 2
	}
	r.absent("serve.", "cluster.", "cache.", "race.", "pass.", "opt.")
	setup, err := r.tableSetup()
	if err != nil {
		return err
	}
	r.setSetup(setup)

	corpus, seeded := rand.New(rand.NewSource(qualitySeed)), rand.New(rand.NewSource(r.seed))
	var targets []qmat.M2
	target := func(i int) qmat.M2 {
		for len(targets) <= i {
			rng := seeded
			if len(targets) < quality {
				rng = corpus
			}
			// trasyn answers a target within ε of the identity with the
			// empty sequence, which the backend reports as ErrNoSequence: a
			// defect of its own, met by two of some 12 000 Haar draws at 5e-2.
			// Draws within 2ε of the identity are skipped.
			if u := qmat.HaarRandom(rng); qmat.Distance(u, qmat.M2{{1, 0}, {0, 1}}) >= 2*eps {
				targets = append(targets, u)
			}
		}
		return targets[i]
	}
	trasyn, _ := synth.Lookup("trasyn")
	req := synth.Request{Epsilon: eps}
	untraced, traced := r.phases()

	var (
		outs  []synth.Result
		lat   []timing
		evals int
		fp    = newFingerprint()
		tSum  int
		cSum  int
	)
	w := startWindow()
	deadline := time.Now().Add(untraced)
	for i := 0; i < quality || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		u := target(i)
		var (
			res synth.Result
			err error
		)
		lat = append(lat, timed(func() { res, err = trasyn.Synthesize(ctx, u, req) }))
		r.attempted++
		outs = append(outs, res)
		if err != nil {
			r.failed++
			r.note("target %d: trasyn: %v", i, err)
			continue
		}
		evals += res.Evals
		if d, ok := checkSeq(u, res.Seq, eps); !ok {
			r.failed++
			r.problem("target %d: trasyn's sequence is %.6g from the target, beyond ε=%g (reported %.6g)", i, d, eps, res.Error)
		}
		if i < quality {
			fp.add(res.Seq.String())
			tSum += res.Seq.TCount()
			cSum += res.Seq.CliffordCount()
		}
	}
	ws := w.end()
	r.setLatency(lat, ws)
	r.setQuality(tSum, cSum, quality)
	r.outputsSHA = fp.sum()
	busy := sumDur(norms(lat)).Seconds()
	r.set("synth.unique_per_op", 1)
	r.set("synth.ops_per_s", float64(len(lat))/busy)
	r.set("trasyn.evals_per_op", float64(evals)/float64(len(lat)))
	r.set("trasyn.evals_per_s", float64(evals)/busy)
	if !r.trace {
		r.setWindow(ws)
	}

	r.u3Reference(ctx, targets[:quality], outs[:quality], eps)
	if !r.trace {
		return nil
	}

	// The traced phase: trasyn emits no spans below the backend, so each
	// op is a replay of Algorithm 1 through the public stage functions
	// under the benchmark's own stage spans, checked against what the
	// backend emitted for the same target.
	tab := newSpanTable()
	tr := trace.New(trace.Config{SampleRatio: 1})
	var tlat []timing
	w = startWindow()
	deadline = time.Now().Add(traced)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		u := target(i)
		var got core.Result
		root := tr.Start("trasyn")
		tlat = append(tlat, timed(func() {
			got = replayTRASYN(root, u, eps)
			root.End()
		}))
		tab.addRoot(root, nil)
		if i >= len(outs) {
			res, err := trasyn.Synthesize(ctx, u, req)
			r.attempted++
			if err != nil {
				r.failed++
				r.note("target %d: trasyn: %v", i, err)
			}
			outs = append(outs, res)
		}
		if want := outs[i]; want.Seq != nil && !slices.Equal(got.Seq, want.Seq) || got.Error != want.Error || got.Evals != want.Evals {
			r.problem("target %d: the stage replay emitted %v (error %g, %d evals), the backend %v (error %g, %d evals)",
				i, got.Seq, got.Error, got.Evals, want.Seq, want.Error, want.Evals)
		}
	}
	r.setWindow(w.end())
	tab.print(r.out)
	r.setOverhead(lat, tlat)
	r.set("trace.coverage", tab.coverage())
	for _, stage := range []string{"collect", "mps_build", "sample", "rewrite"} {
		r.set("trasyn."+stage+"_share", tab.share("trasyn."+stage))
	}
	return nil
}

// u3Reference runs gridsynth's three-Rz U3 on the quality corpus at the same
// ε — the paper's baseline — and records T(gridsynth) / T(trasyn) over the
// targets both meet, and gridsynth's per-call latency and search counts.
func (r *run) u3Reference(ctx context.Context, targets []qmat.M2, outs []synth.Result, eps float64) {
	grid, _ := synth.Lookup("gridsynth")
	tab := newSpanTable()
	tr := trace.New(trace.Config{SampleRatio: 1})
	var (
		lat          []timing
		gridT, trasT int
	)
	for i, u := range targets {
		root := tr.Start("gridsynth")
		var (
			res synth.Result
			err error
		)
		lat = append(lat, timed(func() {
			res, err = grid.Synthesize(trace.NewContext(ctx, root), u, synth.Request{Epsilon: eps})
		}))
		root.End()
		tab.addRoot(root, nil)
		r.attempted++
		if err != nil {
			r.failed++
			r.note("target %d: gridsynth: %v", i, err)
			continue
		}
		d, ok := checkSeq(u, res.Seq, eps)
		if !ok {
			r.failed++
			r.problem("target %d: gridsynth's sequence is %.6g from the target, beyond ε=%g", i, d, eps)
			continue
		}
		if outs[i].Seq != nil && withinEps(qmat.Distance(u, outs[i].Seq.Matrix()), eps) {
			gridT += res.Seq.TCount()
			trasT += outs[i].Seq.TCount()
		}
	}
	r.set("trasyn.t_ratio_vs_gridsynth", ratio(float64(gridT), float64(trasT)))
	r.note("T over the quality corpus: gridsynth %d, trasyn %d", gridT, trasT)
	r.set("gridsynth.ms_p50", quantile(msValues(norms(lat)), 0.5))
	tab.setGridsynth(r)
}

// trasyn's Request defaults (synth.Request's zero TBudget, Tensors and
// Samples); the replay must configure Algorithm 1 exactly as the backend
// does, and the replay check catches any drift.
const (
	trasynTBudget = 5
	trasynTensors = 4
	trasynSamples = 2000
)

// replayTRASYN re-runs core.TRASYN for target u as the trasyn backend
// configures it — core.DefaultConfig over gates.Shared, the threshold eps,
// a rand source seeded with synth.DefaultSeed — calling the stage
// functions one by one, each under a child span of root: Table.Collect
// (trasyn.collect), mps.Build (trasyn.mps_build), Beam or SampleBestTail
// (trasyn.sample), and the top-k post-processing with core.Rewrite
// (trasyn.rewrite).
//
// Timing each stage means copying the glue between them: the outer loop
// of core.TRASYN, core's unexported synthesizeOnce (replayAttempt) and
// topByTrace. This copy of Algorithm 1 is a known duplication; it goes
// once trasyn emits its own stage spans (ROADMAP item 2a). Until then the
// replay check below is what keeps it in step with core, and it runs in
// every traced u3_single run, the tests' traced smoke run included.
func replayTRASYN(root *trace.Span, u qmat.M2, eps float64) core.Result {
	tab := gates.Shared(trasynTBudget)
	cfg := core.DefaultConfig(tab, trasynTBudget, trasynTensors, trasynSamples)
	rng := rand.New(rand.NewSource(synth.DefaultSeed))
	best := core.Result{Error: math.Inf(1)}
	evals := 0
	for sites := cfg.MinSites; sites <= len(cfg.Budgets); sites++ {
		for range cfg.Attempts {
			res := replayAttempt(root, u, cfg, rng, cfg.Budgets[:sites])
			evals += res.Evals
			if res.Error < best.Error || (res.Error == best.Error && res.TCount < best.TCount) {
				best = res
			}
			if best.Error < eps {
				best.Evals = evals
				return best
			}
		}
	}
	best.Evals = evals
	return best
}

// replayAttempt is one attempt of Algorithm 1 over the given per-site
// budgets (core's synthesizeOnce).
func replayAttempt(root *trace.Span, u qmat.M2, cfg core.Config, rng *rand.Rand, budgets []int) core.Result {
	sp := root.Child("trasyn.collect")
	entries := make([][]*gates.Entry, len(budgets))
	mats := make([][]qmat.M2, len(budgets))
	for i, b := range budgets {
		es := cfg.Table.Collect(0, min(b, cfg.Table.MaxT))
		ms := make([]qmat.M2, len(es))
		for j, e := range es {
			ms[j] = e.M
		}
		entries[i], mats[i] = es, ms
	}
	sp.End()

	sp = root.Child("trasyn.mps_build")
	chain := mps.Build(u, mats)
	sp.End()

	sp = root.Child("trasyn.sample")
	var samples []mps.Sampled
	if cfg.UseBeam || len(budgets) == 1 {
		samples = chain.Beam(cfg.BeamWidth)
	} else {
		samples = chain.SampleBestTail(rng, cfg.Samples, cfg.EnvCap)
	}
	sp.End()

	sp = root.Child("trasyn.rewrite")
	defer sp.End()
	best := core.Result{Error: math.Inf(1), Sites: len(budgets), Evals: len(samples)}
	for _, s := range topByTrace(samples, cfg.KeepBest) {
		err := qmat.DistanceFromTrace(s.Trace)
		var seq gates.Sequence
		for site, idx := range s.Indices {
			seq = append(seq, entries[site][idx].Sequence()...)
		}
		seq = core.Rewrite(seq, cfg.Table)
		t, c := seq.TCount(), seq.CliffordCount()
		if err < best.Error || (err == best.Error && (t < best.TCount || (t == best.TCount && c < best.Clifford))) {
			best.Error, best.Seq, best.TCount, best.Clifford = err, seq, t, c
		}
	}
	return best
}

// topByTrace is core's top-k selection by |trace|, reproduced step for
// step: which of two equal-error candidates wins depends on the order it
// leaves them in.
func topByTrace(samples []mps.Sampled, n int) []mps.Sampled {
	if len(samples) <= n {
		return samples
	}
	out := make([]mps.Sampled, 0, n)
	abs2 := func(c complex128) float64 { return real(c)*real(c) + imag(c)*imag(c) }
	worst, worstIdx := -1.0, -1
	recomputeWorst := func() {
		worst, worstIdx = math.Inf(1), -1
		for i, s := range out {
			if v := abs2(s.Trace); v < worst {
				worst, worstIdx = v, i
			}
		}
	}
	for _, s := range samples {
		if len(out) < n {
			out = append(out, s)
			if len(out) == n {
				recomputeWorst()
			}
			continue
		}
		if abs2(s.Trace) > worst {
			out[worstIdx] = s
			recomputeWorst()
		}
	}
	return out
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}
