package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/circuit"
	"repro/circuit/gen"
	"repro/synth"
	"repro/synth/trace"
)

// compileWorkload compiles circuits one at a time, each through a fresh
// pipeline (cold cache) with GOMAXPROCS synthesis workers. It cycles
// through its programs in laps; a seeded program is drawn afresh each
// lap, so a program's median covers many draws rather than one.
type compileWorkload struct {
	backend string
	options []synth.Option
	// eps is the circuit-level error budget every output is checked against.
	eps float64
	// programs names the input programs; compile i builds program
	// i%len(programs) for lap i/len(programs).
	programs []string
	// build returns a program's circuit for a lap, and a key naming that
	// exact input: equal keys are equal circuits, whose outputs must match.
	build func(program, lap int) (*circuit.Circuit, string)
	// quality is the leading compiles every run completes, whole laps: the
	// quality corpus, built at qualitySeed, whose outputs give
	// t_per_rotation and outputs_sha.
	quality int
}

// runQAOAAuto compiles QAOA MaxCut circuits under auto, synthd's default
// backend: trasyn and gridsynth race on every rotation and every core is
// busy, so race waste and any trade of throughput for single-op speed show.
// One-layer circuits on six qubits put each rotation's share of the 0.3
// budget near 2e-2 — trasyn's three-tensor attempt, the regime u3_single
// times one op at a time — and keep a compile under a second, so one run
// covers a few dozen circuits rather than a handful.
func runQAOAAuto(ctx context.Context, r *run) error {
	n, depth, quality, eps := 6, 1, 16, 0.3
	if r.smoke {
		n, depth, quality, eps = 4, 1, 1, 0.6
	}
	cw := &compileWorkload{
		backend:  "auto",
		eps:      eps,
		programs: []string{fmt.Sprintf("qaoa_maxcut(%d,%d)", n, depth)},
		build: func(_, lap int) (*circuit.Circuit, string) {
			s := r.seed + int64(lap)
			if lap < quality {
				s = qualitySeed + int64(lap)
			}
			return gen.QAOAMaxCut(n, depth, s), fmt.Sprintf("qaoa_maxcut(%d,%d,%d)", n, depth, s)
		},
		quality: quality,
	}
	r.absent("serve.", "cluster.", "cache.", "trasyn.", "opt.")
	return cw.run(ctx, r)
}

// runCircuitsGridsynth compiles a set of circuit families through
// gridsynth with the optimizer on: transpile, the optimize passes and
// gridsynth's number theory at per-rotation ε of 1e-5 to 1e-6, and no
// trasyn at all. Lap 0, the quality corpus, draws the seeded families at
// qualitySeed; lap k ≥ 1 at the run's seed + 1000k.
func runCircuitsGridsynth(ctx context.Context, r *run) error {
	lapSeed := func(lap int) int64 {
		if lap == 0 {
			return qualitySeed
		}
		return r.seed + 1000*int64(lap)
	}
	cw := &compileWorkload{
		backend: "gridsynth",
		options: []synth.Option{synth.WithOptimize(2)},
		eps:     1e-3,
		programs: []string{"qaoa_maxcut(12,3)", "qft(8)", "vqe(8,4)", "su4_blocks(6,12)",
			"ghz_rot(10)", "random(8,20)", "cuccaro_adder(4)"},
		build: func(p, lap int) (*circuit.Circuit, string) {
			s := lapSeed(lap)
			seeded := func(c *circuit.Circuit, name string) (*circuit.Circuit, string) {
				return c, fmt.Sprintf("%s@%d", name, s)
			}
			switch p {
			case 0:
				return seeded(gen.QAOAMaxCut(12, 3, s), "qaoa_maxcut(12,3)")
			case 1:
				return gen.QFT(8), "qft(8)"
			case 2:
				return seeded(gen.VQEAnsatz(8, 4, s), "vqe(8,4)")
			case 3:
				return seeded(gen.RandomSU4Blocks(6, 12, s), "su4_blocks(6,12)")
			case 4:
				return seeded(gen.GHZWithRotations(10, s), "ghz_rot(10)")
			case 5:
				return seeded(gen.RandomCircuit(8, 20, s), "random(8,20)")
			default:
				return gen.CuccaroAdder(4), "cuccaro_adder(4)"
			}
		},
	}
	if r.smoke {
		cw.eps = 1e-2
		cw.programs = []string{"qft(3)", "ghz_rot(4)"}
		cw.build = func(p, lap int) (*circuit.Circuit, string) {
			if p == 0 {
				return gen.QFT(3), "qft(3)"
			}
			s := lapSeed(lap)
			return gen.GHZWithRotations(4, s), fmt.Sprintf("ghz_rot(4)@%d", s)
		}
	}
	cw.quality = len(cw.programs)
	r.absent("serve.", "cluster.", "cache.", "trasyn.", "race.")
	return cw.run(ctx, r)
}

// input builds compile i's circuit.
func (cw *compileWorkload) input(i int) (*circuit.Circuit, string, int) {
	p := i % len(cw.programs)
	c, key := cw.build(p, i/len(cw.programs))
	return c, key, p
}

func (cw *compileWorkload) run(ctx context.Context, r *run) error {
	setup, err := r.tableSetup()
	if err != nil {
		return err
	}
	fixture, err := repeat(setupReps, func() error {
		for i := range cw.quality {
			cw.input(i)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.setSetup(setup, fixture)

	untraced, traced := r.phases()
	outputs := map[string][32]byte{} // input key → sha256 of its lowered QASM
	base, err := cw.phase(ctx, r, untraced, cw.quality, nil, outputs)
	if err != nil {
		return err
	}
	if len(cw.programs) > 1 {
		r.setLatencyByInput(cw.programs, base.byProgram, base.ws)
	} else {
		r.setLatency(base.lat, base.ws)
	}
	r.setQuality(base.tCount, base.clifford, base.rotations)
	r.outputsSHA = base.fp.sum()
	if !r.trace {
		base.setLayers(r)
		r.setWindow(base.ws)
		return nil
	}
	tab := newSpanTable()
	ph, err := cw.phase(ctx, r, traced, 1, tab, outputs)
	if err != nil {
		return err
	}
	ph.setLayers(r)
	r.setWindow(ph.ws)
	tab.print(r.out)
	tab.setGridsynth(r)
	r.setOverhead(base.lat, ph.lat)
	r.set("trace.coverage", tab.coverage())
	return nil
}

// compilePhase is what one phase of compiles measured.
type compilePhase struct {
	lat                         []timing
	byProgram                   [][]timing
	ws                          windowStats
	wall                        time.Duration
	passes                      map[string]time.Duration
	unique, tSaved, iterations  int
	tCount, clifford, rotations int
	fp                          *fingerprint
	race                        raceStats
}

// phase compiles inputs in order for d, at least atLeast of them and
// whole laps. With tab set, every compile runs under a root span whose
// tree tab aggregates. Every output is checked: the first output for each
// input in the simulator, later ones against that first output.
func (cw *compileWorkload) phase(ctx context.Context, r *run, d time.Duration, atLeast int, tab *spanTable, outputs map[string][32]byte) (*compilePhase, error) {
	ph := &compilePhase{
		byProgram: make([][]timing, len(cw.programs)),
		passes:    map[string]time.Duration{},
		fp:        newFingerprint(),
	}
	var tr *trace.Tracer
	if tab != nil {
		tr = trace.New(trace.Config{SampleRatio: 1})
	}
	opts := append([]synth.Option{
		synth.WithCircuitEpsilon(cw.eps),
		synth.WithWorkers(runtime.GOMAXPROCS(0)),
		synth.WithSynthObserver(ph.race.observe),
	}, cw.options...)
	w := startWindow()
	deadline := time.Now().Add(d)
	for i := 0; i < atLeast || time.Now().Before(deadline) || i%len(cw.programs) != 0; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		in, key, prog := cw.input(i)
		pl, err := synth.NewPipelineFor(cw.backend, opts...)
		if err != nil {
			return nil, err
		}
		cctx := ctx
		root := tr.Start("compile")
		if root != nil {
			cctx = trace.NewContext(ctx, root)
		}
		mark := ph.race.mark()
		var res *synth.PipelineResult
		t := timedAll(func() { res, err = pl.Run(cctx, in) })
		ph.lat = append(ph.lat, t)
		ph.byProgram[prog] = append(ph.byProgram[prog], t)
		ph.race.scale(mark, t)
		r.attempted++
		if root != nil {
			root.End()
			tab.addRoot(root, nil)
		}
		if err != nil {
			r.failed++
			r.note("%s: %v", key, err)
			continue
		}
		ph.wall += res.Wall
		for _, p := range res.Stats.Passes {
			ph.passes[p.Name] += p.Wall
		}
		ph.unique += res.Stats.Unique
		if o := res.Stats.Opt; o != nil {
			ph.tSaved += o.TSaved()
			ph.iterations += o.Iterations
		}
		qasm := res.Circuit.QASM()
		sum := sha256.Sum256([]byte(qasm))
		if i < cw.quality {
			ph.fp.add(qasm)
			ph.tCount += res.Circuit.TCount()
			ph.clifford += res.Circuit.CliffordCount()
			ph.rotations += res.Stats.Rotations
		}
		if prev, seen := outputs[key]; seen {
			if prev != sum {
				r.failed++
				r.problem("%s: compile %d lowered differently from the first compile of the same input", key, i)
			}
			continue
		}
		outputs[key] = sum
		rng := rand.New(rand.NewSource(r.seed ^ int64(i)<<20))
		if dist, err := checkCircuit(in, res.Circuit, res.Stats.ErrorBound, cw.eps, res.Stats.Rotations, rng); err != nil {
			r.failed++
			r.problem("%s: %v", key, err)
		} else if i < cw.quality {
			r.note("%s: %.1f ms (wall %.1f), %d rotations, T %d, error bound %.4g, state distance %.4g",
				key, float64(t.norm)/1e6, float64(t.wall)/1e6, res.Stats.Rotations, res.Circuit.TCount(), res.Stats.ErrorBound, dist)
		}
	}
	ph.ws = w.end()
	return ph, nil
}

// setLayers records the compiler-side per-layer metrics of the phase.
func (ph *compilePhase) setLayers(r *run) {
	wall := ph.wall.Seconds()
	other := wall
	for _, name := range []string{"transpile", "lower", "optct"} {
		s := ph.passes[name].Seconds()
		r.set("pass."+name+"_share", ratio(s, wall))
		other -= s
	}
	r.set("pass.other_share", ratio(other, wall))
	n := float64(len(ph.lat))
	r.set("opt.t_saved", float64(ph.tSaved)/n)
	r.set("opt.iterations", float64(ph.iterations)/n)
	r.set("synth.unique_per_op", float64(ph.unique)/n)
	r.set("synth.ops_per_s", ratio(float64(ph.unique), sumDur(norms(ph.lat)).Seconds()))
	ph.race.set(r, wall)
}

// raceStats accumulates the synthesis observations of a phase's compiles:
// who won each race and what the losers cost.
type raceStats struct {
	mu                sync.Mutex
	races, trasynWins int
	loserWall         time.Duration
	gridsynth         []time.Duration
}

// observe is the pipelines' synthesis observer; workers call it
// concurrently.
func (s *raceStats) observe(o synth.SynthObservation) {
	if o.CacheHit {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if o.Won {
		s.races++
		if o.Backend == "trasyn" {
			s.trasynWins++
		}
	} else {
		s.loserWall += o.Wall
	}
	if o.Backend == "gridsynth" && !o.Failed {
		s.gridsynth = append(s.gridsynth, o.Wall)
	}
}

// mark and scale normalize the gridsynth times one compile observed by
// that compile's own normalization: compiles run one at a time, so the
// observations after mark are its.
func (s *raceStats) mark() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.gridsynth)
}

func (s *raceStats) scale(mark int, t timing) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := mark; i < len(s.gridsynth); i++ {
		s.gridsynth[i] = time.Duration(float64(s.gridsynth[i]) * float64(t.norm) / float64(t.wall))
	}
}

func (s *raceStats) set(r *run, wall float64) {
	r.set("race.trasyn_win_share", ratio(float64(s.trasynWins), float64(s.races)))
	r.set("race.loser_cpu_share", ratio(s.loserWall.Seconds(), wall))
	r.set("gridsynth.ms_p50", quantile(msValues(s.gridsynth), 0.5))
	r.note("races %d, trasyn won %d, losers spent %.3f s", s.races, s.trasynWins, s.loserWall.Seconds())
}
