// Package core implements trasyn, the paper's tensor-network-guided
// synthesis of arbitrary single-qubit unitaries over Clifford+T (§3).
//
// Step 0 (the enumeration) lives in package gates; this package builds the
// trace-value MPS over the enumerated building blocks (step 1), samples
// high-trace-value gate sequences (step 2), rewrites suboptimal junctions
// with the lookup table (step 3), and wraps everything in the Algorithm 1
// outer loop that trades T budget against synthesis error.
package core

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/gates"
	"repro/internal/mps"
	"repro/internal/qmat"
	"repro/internal/ring"
)

// Config controls a synthesis run. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// Table is the step-0 enumeration (shared, immutable).
	Table *gates.Table
	// Budgets is the per-tensor T-count budget list (the paper's m). Site i
	// draws from all enumerated operators with T count ≤ Budgets[i].
	Budgets []int
	// MinSites is Algorithm 1's l: the first attempt uses Budgets[:MinSites].
	MinSites int
	// Samples is the number of MPS samples k per attempt.
	Samples int
	// EnvCap bounds concurrently tracked sample groups (0 = unlimited).
	EnvCap int
	// Attempts is Algorithm 1's r: sampling retries per budget prefix.
	Attempts int
	// Epsilon, when positive, turns the run into the Eq. (4) form: stop as
	// soon as the error threshold is met.
	Epsilon float64
	// UseBeam switches step 2 from sampling to a deterministic beam search
	// of width BeamWidth (an extension; the paper samples).
	UseBeam   bool
	BeamWidth int
	// KeepBest is how many top-trace samples are post-processed per attempt.
	KeepBest int
	// Rng drives sampling; nil selects a fixed default seed so that runs
	// are reproducible unless the caller opts into randomness.
	Rng *rand.Rand
	// Cancel, when non-nil, aborts a run: TRASYN polls it between attempts
	// and the sampler between chunks of prefixes inside one. The best
	// result of the attempts that finished is returned. A deferred attempt
	// (see TRASYN) has not finished until its tail is completed, which
	// happens only once every rung has missed ε and never after Cancel
	// closes; it can never have met ε.
	Cancel <-chan struct{}
}

// DefaultConfig returns a CPU-friendly configuration: per-site budget m,
// nSites tensors, k samples. The paper's reference configuration is
// m=10, nSites∈{1,2,3}, k=40000 on an A100; defaults here are scaled for
// laptop-class hardware and can be raised freely.
func DefaultConfig(table *gates.Table, m, nSites, k int) Config {
	budgets := make([]int, nSites)
	for i := range budgets {
		budgets[i] = m
	}
	return Config{
		Table:     table,
		Budgets:   budgets,
		MinSites:  1,
		Samples:   k,
		EnvCap:    0, // unbounded: marginals at early sites are nearly flat
		Attempts:  1,
		KeepBest:  32,
		BeamWidth: 192,
	}
}

// Result is a synthesized approximation of the target.
type Result struct {
	Seq      gates.Sequence // gate sequence in matrix-product order
	Error    float64        // unitary distance Eq. (2) to the target
	TCount   int
	Clifford int // non-Pauli Clifford gates (H, S, S†)
	Sites    int // tensors used in the MPS for the winning attempt
	// Evals counts the configurations drawn across all attempts, deferred
	// ones included, whether or not their tails were completed.
	Evals int
}

// Synthesize solves the Eq. (3) form: minimize the distance to u subject to
// the per-site budgets (steps 1–3, no outer loop). The returned sequence's
// product equals the sampled operator up to global phase.
func Synthesize(u qmat.M2, cfg Config) Result {
	cfg = fill(cfg)
	return (&search{cfg: cfg}).attempt(u, len(cfg.Budgets))
}

// TRASYN is Algorithm 1: attempts budgets[:l], budgets[:l+1], …, r times
// each, keeping the best solution; with Epsilon > 0 it returns as soon as
// the threshold is met, effectively solving Eq. (4).
//
// With Epsilon > 0, a sampled rung other than the last is deferred when
// no Clifford+T operator within its summed T budget lies within ε
// (gates.Reaches): it cannot be the rung that meets ε. Its attempts build
// their chains and draw their prefixes in turn, so the random stream and
// Evals are unchanged, but their tails are completed only if every rung
// misses ε; then every attempt's result is folded in rung order. So the
// result is the one the ladder returns with every rung run in full.
func TRASYN(u qmat.M2, cfg Config) Result {
	cfg = fill(cfg)
	s := &search{cfg: cfg}
	best, bestAt := Result{Error: math.Inf(1)}, -1
	// better reports whether res, the at-th attempt, precedes best in the
	// order the ladder folds: lower error, then fewer T, then earlier.
	better := func(res Result, at int) bool {
		return res.Error < best.Error ||
			(res.Error == best.Error && (res.TCount < best.TCount || (res.TCount == best.TCount && at < bestAt)))
	}
	evals, at := 0, 0
	var deferred []deferredAttempt
	for i := cfg.MinSites; i <= len(cfg.Budgets); i++ {
		skip := false
		for j := 0; j < cfg.Attempts; j, at = j+1, at+1 {
			if closed(cfg.Cancel) {
				best.Evals = evals
				return best
			}
			if j == 0 {
				skip = s.unreachable(u, i)
			}
			if skip {
				if d, ok := s.draw(u, i); ok {
					evals += d.Len()
					deferred = append(deferred, deferredAttempt{d: d, sites: i, at: at})
				}
				continue
			}
			res := s.attempt(u, i)
			evals += res.Evals
			if better(res, at) {
				best, bestAt = res, at
			}
			if cfg.Epsilon > 0 && best.Error < cfg.Epsilon {
				best.Evals = evals
				return best
			}
		}
	}
	for _, d := range deferred {
		if closed(cfg.Cancel) {
			break
		}
		if res := s.best(d.d.CompleteUntil(cfg.Cancel), d.sites); better(res, d.at) {
			best, bestAt = res, d.at
		}
	}
	best.Evals = evals
	return best
}

// deferredAttempt is an attempt whose prefixes are drawn and whose tail
// waits: the at-th attempt of TRASYN's ladder, over its first sites.
type deferredAttempt struct {
	d         mps.Drawn
	sites, at int
}

func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func fill(cfg Config) Config {
	if cfg.Table == nil {
		panic("core: Config.Table is required")
	}
	if len(cfg.Budgets) == 0 {
		panic("core: Config.Budgets is required")
	}
	if cfg.MinSites <= 0 {
		cfg.MinSites = 1
	}
	if cfg.MinSites > len(cfg.Budgets) {
		cfg.MinSites = len(cfg.Budgets)
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 1024
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 1
	}
	if cfg.KeepBest <= 0 {
		cfg.KeepBest = 16
	}
	if cfg.BeamWidth <= 0 {
		cfg.BeamWidth = 128
	}
	if cfg.Rng == nil {
		// A fixed default seed: reproducible batch runs must not depend on
		// the clock (callers wanting fresh randomness pass their own Rng).
		cfg.Rng = rand.New(rand.NewSource(1))
	}
	return cfg
}

// search is one Synthesize or TRASYN call: its configuration
// and the per-site candidate lists its attempts share. Site i draws from
// the enumerated operators with T count ≤ Budgets[i]; each list is
// collected on first use, once per call, and sites with equal budgets
// share one. The lists are not cached on the Table, where they would stay
// live for the life of the process.
type search struct {
	cfg     Config
	entries [][]*gates.Entry // per site, the operators it draws from
	mats    [][]qmat.M2      // per site, their matrices in the same order
	reached bool             // some rung's budget was shown to reach ε
}

// sites returns the candidate matrices of sites [0, n).
func (s *search) sites(n int) [][]qmat.M2 {
	capped := func(b int) int { return min(b, s.cfg.Table.MaxT) }
	for i := len(s.mats); i < n; i++ {
		b := capped(s.cfg.Budgets[i])
		if j := slices.IndexFunc(s.cfg.Budgets[:i], func(x int) bool { return capped(x) == b }); j >= 0 {
			s.entries, s.mats = append(s.entries, s.entries[j]), append(s.mats, s.mats[j])
			continue
		}
		es := s.cfg.Table.Collect(0, b)
		ms := make([]qmat.M2, len(es))
		for k, e := range es {
			ms[k] = e.M
		}
		s.entries, s.mats = append(s.entries, es), append(s.mats, ms)
	}
	return s.mats[:n]
}

// sample is steps 1 and 2 over the first n sites: the trace-value MPS and
// its sampled configurations, nil if the run was canceled.
func (s *search) sample(u qmat.M2, n int) []mps.Sampled {
	chain := mps.Build(u, s.sites(n))
	if s.cfg.UseBeam || n == 1 {
		// A single site is a lookup table: the beam scan is exact (§4.1).
		return chain.BeamUntil(s.cfg.Cancel, s.cfg.BeamWidth)
	}
	// Error-aware sampling with an exact argmax completion of the last
	// tensor per sampled prefix (same cost as a plain draw, strictly
	// better for the Eq. (3) objective).
	return chain.SampleBestTailUntil(s.cfg.Cancel, s.cfg.Rng, s.cfg.Samples, s.cfg.EnvCap)
}

// draw is steps 1 and 2 over the first n sites short of the tail: the
// trace-value MPS and its drawn prefixes, false if the run was canceled.
func (s *search) draw(u qmat.M2, n int) (mps.Drawn, bool) {
	return mps.Build(u, s.sites(n)).DrawUntil(s.cfg.Cancel, s.cfg.Rng, s.cfg.Samples, s.cfg.EnvCap)
}

// unreachable reports whether TRASYN may defer the rung over the first n
// sites: it samples (two sites or more, no beam), it is not the last, and
// no operator within its summed, table-capped T budget B lies within ε.
// The walk that decides it visits up to 3·2^B nodes; it is taken only when
// that is at most a sixteenth of the k·m candidate products of the tail
// it would save (m the last site's candidates), and not again once a
// budget has reached ε, since reaching is monotone in B.
func (s *search) unreachable(u qmat.M2, n int) bool {
	cfg := &s.cfg
	if cfg.Epsilon <= 0 || cfg.UseBeam || n < 2 || n == len(cfg.Budgets) || s.reached {
		return false
	}
	b := 0
	for _, x := range cfg.Budgets[:n] {
		b += min(x, cfg.Table.MaxT)
	}
	if b < 0 || b > 40 || 3<<b > cfg.Samples*len(s.sites(n)[n-1])/16 {
		return false
	}
	s.reached = gates.Reaches(u, cfg.Epsilon, b)
	return !s.reached
}

// sequence is a sample's gate sequence after step 3's rewriting.
func (s *search) sequence(smp mps.Sampled) gates.Sequence {
	var seq gates.Sequence
	for site, idx := range smp.Indices {
		seq = s.entries[site][idx].AppendSequence(seq)
	}
	return Rewrite(seq, s.cfg.Table)
}

// attempt is one attempt of Algorithm 1 over the first n sites: sample,
// then post-process the top KeepBest samples by trace value.
func (s *search) attempt(u qmat.M2, n int) Result {
	return s.best(s.sample(u, n), n)
}

// best is an attempt's result from its samples over n sites: the top
// KeepBest samples by trace value, rewritten, and the best of them.
func (s *search) best(samples []mps.Sampled, n int) Result {
	best := Result{Error: math.Inf(1), Sites: n, Evals: len(samples)}
	for _, smp := range topByTrace(samples, s.cfg.KeepBest) {
		err := qmat.DistanceFromTrace(smp.Trace)
		if err > best.Error {
			continue // loses whatever its rewritten cost: skip the rewrite
		}
		seq := s.sequence(smp)
		t, c := seq.TCount(), seq.CliffordCount()
		if err < best.Error ||
			(err == best.Error && (t < best.TCount || (t == best.TCount && c < best.Clifford))) {
			best.Error, best.Seq, best.TCount, best.Clifford = err, seq, t, c
		}
	}
	return best
}

// topByTrace selects up to n samples with the largest |trace| (selection
// without a full sort; sample lists can be large).
func topByTrace(samples []mps.Sampled, n int) []mps.Sampled {
	if len(samples) <= n {
		return samples
	}
	out := make([]mps.Sampled, 0, n)
	absv := func(c complex128) float64 {
		return real(c)*real(c) + imag(c)*imag(c)
	}
	worst := -1.0
	worstIdx := -1
	recomputeWorst := func() {
		worst, worstIdx = math.Inf(1), -1
		for i, s := range out {
			if v := absv(s.Trace); v < worst {
				worst, worstIdx = v, i
			}
		}
	}
	for _, s := range samples {
		v := absv(s.Trace)
		if len(out) < n {
			out = append(out, s)
			if len(out) == n {
				recomputeWorst()
			}
			continue
		}
		if v > worst {
			out[worstIdx] = s
			recomputeWorst()
		}
	}
	return out
}

// Rewrite is step 3: scan the sequence for windows whose exact product has
// a cheaper enumerated form and substitute it. Every window with T count ≤
// Table.MaxT is guaranteed to be found (MA normal forms are exhaustive), so
// segments are replaced by their canonical minimal form; alternating
// segmentation offsets across passes catches junction reductions. The
// product is preserved up to global phase. A T gate that no window can
// hold (a table with MaxT 0) is copied through unchanged. The input is
// never modified.
func Rewrite(seq gates.Sequence, tab *gates.Table) gates.Sequence {
	if tab == nil || len(seq) == 0 {
		return seq
	}
	cost := func(s gates.Sequence) (int, int, int) {
		return s.TCount(), s.CliffordCount(), len(s)
	}
	better := func(a, b gates.Sequence) bool {
		at, ac, al := cost(a)
		bt, bc, bl := cost(b)
		if at != bt {
			return at < bt
		}
		if ac != bc {
			return ac < bc
		}
		return al < bl
	}
	cur := seq
	for pass := 0; pass < 12; pass++ {
		offset := 0
		if pass%2 == 1 && len(cur) > 1 {
			offset = 1 // shift segmentation to heal junctions
		}
		next := append(make(gates.Sequence, 0, len(cur)+8), cur[:offset]...)
		i := offset
		changed := false
		for i < len(cur) {
			// Grow the window to the maximal T budget.
			j := i
			tcount := 0
			u := ring.UIdentity()
			for j < len(cur) {
				g := cur[j]
				if g.IsT() && tcount == tab.MaxT {
					break
				}
				g.RightMul(&u)
				if g.IsT() {
					tcount++
				}
				j++
			}
			if j == i {
				next = append(next, cur[i])
				i++
				continue
			}
			window := cur[i:j]
			if e, ok := tab.Find(u); ok {
				mark := len(next)
				next = e.AppendSequence(next)
				if better(next[mark:], window) {
					changed = true
					i = j
					continue
				}
				next = next[:mark]
			}
			next = append(next, window...)
			i = j
		}
		if !changed && pass >= 1 {
			return dropLeadingPaulis(next)
		}
		cur = next
	}
	return dropLeadingPaulis(cur)
}

// dropLeadingPaulis removes no-cost identity gates (I) anywhere; Paulis are
// kept (they are free but still part of the operator).
func dropLeadingPaulis(seq gates.Sequence) gates.Sequence {
	out := seq[:0]
	for _, g := range seq {
		if g == gates.I {
			continue
		}
		out = append(out, g)
	}
	return out
}
