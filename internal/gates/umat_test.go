package gates_test

import (
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/gates"
)

// hWord returns n pairs H·T^±1, a word whose coefficients roughly double
// with every second pair.
func hWord(rng *rand.Rand, n int) gates.Sequence {
	s := make(gates.Sequence, 0, 2*n)
	for range n {
		s = append(s, gates.H, []gates.Gate{gates.T, gates.Tdg}[rng.Intn(2)])
	}
	return s
}

// TestSequenceUMatBound: Sequence.UMat is exact while its coefficients
// stay below 2^61 — a word of 200 H·T^±1 pairs equals exact.SequenceBU's
// product — and panics, rather than wrapping, on a word of 260 pairs.
func TestSequenceUMatBound(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 5; trial++ {
		w := hWord(rng, 200)
		got, ok := exact.SequenceBU(w).ToUMat()
		if !ok {
			t.Fatalf("200 pairs: the big product does not fit int64")
		}
		if u := w.UMat(); u != got {
			t.Fatalf("200 pairs: Sequence.UMat %v, exact.SequenceBU %v", u, got)
		}
	}
	w := hWord(rng, 260)
	defer func() {
		if recover() == nil {
			t.Fatal("260 pairs: Sequence.UMat returned without a panic")
		}
	}()
	w.UMat()
}
