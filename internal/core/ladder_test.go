package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gates"
	"repro/internal/qmat"
)

// refTRASYN is Algorithm 1's ladder with every rung run in full: each
// budget prefix's attempts sample and complete every prefix, in order,
// and the ladder returns at the first result within ε. TRASYN must return
// exactly what it returns.
func refTRASYN(u qmat.M2, cfg Config) Result {
	cfg = fill(cfg)
	s := &search{cfg: cfg}
	best := Result{Error: math.Inf(1)}
	evals := 0
	for i := cfg.MinSites; i <= len(cfg.Budgets); i++ {
		for j := 0; j < cfg.Attempts; j++ {
			res := s.attempt(u, i)
			evals += res.Evals
			if res.Error < best.Error ||
				(res.Error == best.Error && res.TCount < best.TCount) {
				best = res
			}
			if cfg.Epsilon > 0 && best.Error < cfg.Epsilon {
				best.Evals = evals
				return best
			}
		}
	}
	best.Evals = evals
	return best
}

// ladderTarget is one target of TestTRASYNMatchesLadder.
type ladderTarget struct {
	name string
	u    qmat.M2
}

// ladderTargets returns the targets TestTRASYNMatchesLadder runs at ε:
// Haar, Rz and Rx targets, and one that lies a hair inside ε of a T = 6
// operator, which the two-site rungs can complete exactly. Its margin,
// 1e-13 on |Tr|/2, is inside any slack a certificate of "no operator
// within ε" may take, and wide enough that the chain's rounding still
// reports an error below ε.
func ladderTargets(rng *rand.Rand, eps float64) []ladderTarget {
	ts := []ladderTarget{
		{"haar", qmat.HaarRandom(rng)},
		{"haar", qmat.HaarRandom(rng)},
		{"rz", qmat.Rz(2 * math.Pi * rng.Float64())},
		{"rx", qmat.Rx(2 * math.Pi * rng.Float64())},
	}
	lvl := gates.Shared(6).Levels[6]
	e := lvl[rng.Intn(len(lvl))].M
	// E·exp(−iδ/2·n·σ) lies at distance sin(δ/2) from E.
	s := eps - 1e-13/eps
	c := math.Sqrt(1 - s*s)
	n := [3]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	norm := math.Sqrt(n[0]*n[0] + n[1]*n[1] + n[2]*n[2])
	x, y, z := s*n[0]/norm, s*n[1]/norm, s*n[2]/norm
	r := qmat.M2{
		{complex(c, -z), complex(-y, -x)},
		{complex(y, -x), complex(c, z)},
	}
	return append(ts, ladderTarget{"inside", qmat.Mul(e, r)})
}

// defersBefore reports whether TRASYN, run with cfg, defers a rung before
// the one over sites sites.
func defersBefore(u qmat.M2, cfg Config, sites int) bool {
	s := &search{cfg: fill(cfg)}
	for n := s.cfg.MinSites; n < sites; n++ {
		if s.unreachable(u, n) {
			return true
		}
	}
	return false
}

// TestTRASYNMatchesLadder: TRASYN returns, bit for bit, what the ladder
// that runs every rung in full returns — sequence, error bits, evals and
// sites — on Haar, Rz/Rx and just-inside-ε targets, at ε from 5e-2 to
// 1e-3, with one and two attempts per rung, starting at one and at two
// sites, on four T ≤ 4 sites and three T ≤ 5 sites.
func TestTRASYNMatchesLadder(t *testing.T) {
	type shape struct{ m, sites int }
	shapes := []shape{{4, 4}, {5, 3}}
	rng := rand.New(rand.NewSource(27))
	runs, allMiss, inside, deferredWin := 0, 0, 0, 0
	for ei, eps := range []float64{5e-2, 2e-2, 5e-3, 1e-3} {
		for ti, tg := range ladderTargets(rng, eps) {
			if raceEnabled && ti%2 == 1 {
				continue
			}
			for ci := range 4 {
				if raceEnabled && ci >= 2 {
					continue
				}
				// Cycle through shapes, attempts and first rungs so each
				// target meets four of the eight combinations, two per
				// shape.
				combo := (ti + ei + 3*ci) % 8
				sh := shapes[combo%2]
				cfg := DefaultConfig(gates.Shared(sh.m), sh.m, sh.sites, 300)
				cfg.Epsilon = eps
				cfg.Attempts = 1 + combo/2%2
				cfg.MinSites = 1 + combo/4
				want, got := cfg, cfg
				want.Rng = rand.New(rand.NewSource(int64(runs)))
				got.Rng = rand.New(rand.NewSource(int64(runs)))
				w, g := refTRASYN(tg.u, want), TRASYN(tg.u, got)
				runs++
				if g.Seq.String() != w.Seq.String() || math.Float64bits(g.Error) != math.Float64bits(w.Error) ||
					g.Evals != w.Evals || g.Sites != w.Sites {
					t.Errorf("ε %g, %s target %d, T ≤ %d × %d sites, %d attempts from %d sites:\n got %v (error %v, evals %d, sites %d)\nwant %v (error %v, evals %d, sites %d)",
						eps, tg.name, ti, sh.m, sh.sites, cfg.Attempts, cfg.MinSites,
						g.Seq, g.Error, g.Evals, g.Sites, w.Seq, w.Error, w.Evals, w.Sites)
				}
				// Runs that defer a rung and then miss everywhere, and runs
				// that defer one and win later.
				if w.Error >= eps {
					if defersBefore(tg.u, cfg, sh.sites) {
						allMiss++
					}
				} else if defersBefore(tg.u, cfg, w.Sites) {
					deferredWin++
				}
				if tg.name == "inside" && w.Error < eps && w.Error >= eps-1e-9 {
					inside++
				}
			}
		}
	}
	t.Logf("%d runs: %d deferred a rung and missed at every rung, %d won after a deferred rung, %d won just inside ε", runs, allMiss, deferredWin, inside)
	if allMiss == 0 || deferredWin == 0 || inside == 0 {
		t.Errorf("the cases must include runs that defer a rung and miss at every rung (%d), runs won after a deferred rung (%d) and runs won just inside ε (%d)", allMiss, deferredWin, inside)
	}
}
