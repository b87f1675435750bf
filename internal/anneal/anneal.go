// Package anneal is the Synthetiq-style baseline: simulated annealing over
// fixed-length Clifford+T gate sequences minimizing the unitary distance of
// Eq. (2), with random restarts under a wall-clock budget. Like the
// original, it is a Monte-Carlo search with no optimality or termination
// guarantee — the paper's evaluation shows it failing to reach tight
// thresholds within its time limit, and this implementation reproduces
// that scaling behavior.
package anneal

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/gates"
	"repro/internal/qmat"
)

// Options configures the annealer.
type Options struct {
	// Length is the sequence length (identity slots allowed). 0 derives a
	// length from the error target.
	Length int
	// Budget bounds wall clock.
	Budget time.Duration
	// Rng drives the search; nil selects a fixed default seed so runs are
	// reproducible unless the caller opts into randomness.
	Rng *rand.Rand
	// Cancel, when non-nil, aborts the search early (checked at restart
	// boundaries and every few hundred iterations); the best sequence so
	// far is returned.
	Cancel <-chan struct{}
}

// Result reports the best sequence found.
type Result struct {
	Seq      gates.Sequence
	Error    float64
	TCount   int
	Clifford int
	Restarts int
	Success  bool // Error ≤ the requested eps within the budget
}

// The geometric temperature schedule: each restart starts at initTemp
// and multiplies it by coolRate per iteration, for at most
// itersPerRestart iterations.
const (
	initTemp        = 0.3
	coolRate        = 0.9997
	itersPerRestart = 20000
)

var alphabet = []gates.Gate{
	gates.I, gates.X, gates.Y, gates.Z, gates.H,
	gates.S, gates.Sdg, gates.T, gates.Tdg,
}

func (o Options) filled(eps float64) Options {
	if o.Length <= 0 {
		// ~3 gates per T and ~3·log2(1/ε) T gates.
		o.Length = 24 + int(9*math.Log2(1/eps))
	}
	if o.Budget <= 0 {
		o.Budget = 2 * time.Second
	}
	if o.Rng == nil {
		o.Rng = rand.New(rand.NewSource(1))
	}
	return o
}

// canceled polls o.Cancel without blocking.
func (o Options) canceled() bool {
	if o.Cancel == nil {
		return false
	}
	select {
	case <-o.Cancel:
		return true
	default:
		return false
	}
}

// Synthesize searches for a sequence with D(U, seq) ≤ eps.
func Synthesize(u qmat.M2, eps float64, opt Options) Result {
	opt = opt.filled(eps)
	deadline := time.Now().Add(opt.Budget)
	best := Result{Error: math.Inf(1)}
	rng := opt.Rng
	for time.Now().Before(deadline) && !opt.canceled() {
		best.Restarts++
		seq := make(gates.Sequence, opt.Length)
		for i := range seq {
			seq[i] = alphabet[rng.Intn(len(alphabet))]
		}
		cur := qmat.Distance(u, seq.Matrix())
		temp := initTemp
		for it := 0; it < itersPerRestart; it++ {
			if it%512 == 0 && (!time.Now().Before(deadline) || opt.canceled()) {
				break
			}
			pos := rng.Intn(opt.Length)
			old := seq[pos]
			seq[pos] = alphabet[rng.Intn(len(alphabet))]
			next := qmat.Distance(u, seq.Matrix())
			accept := next <= cur
			if !accept && temp > 1e-12 {
				accept = rng.Float64() < math.Exp((cur-next)/temp)
			}
			if accept {
				cur = next
			} else {
				seq[pos] = old
			}
			temp *= coolRate
			if cur < best.Error {
				clean := compact(seq)
				best.Seq = clean
				best.Error = cur
				best.TCount = clean.TCount()
				best.Clifford = clean.CliffordCount()
				if best.Error <= eps {
					best.Success = true
					return best
				}
			}
		}
	}
	best.Success = best.Error <= eps
	return best
}

// compact removes identity slots.
func compact(seq gates.Sequence) gates.Sequence {
	out := make(gates.Sequence, 0, len(seq))
	for _, g := range seq {
		if g != gates.I {
			out = append(out, g)
		}
	}
	return out
}
