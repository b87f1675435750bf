package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/gates"
	"repro/internal/ring"
)

// exactProduct multiplies a sequence out with the generic ring.UMat.Mul,
// independently of the gate-specialized products Rewrite uses.
func exactProduct(s gates.Sequence) ring.UMat {
	u := ring.UIdentity()
	for _, g := range s {
		u = u.Mul(g.UMat())
	}
	return u
}

// rewriteCost is Rewrite's improvement order: T count, then non-Pauli
// Cliffords, then length.
func rewriteCost(s gates.Sequence) [3]int {
	return [3]int{s.TCount(), s.CliffordCount(), len(s)}
}

func costAbove(a, b [3]int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] > b[i]
		}
	}
	return false
}

// TestRewriteProperties: on random sequences of up to 60 gates and tables
// of every budget from 0 to 5, Rewrite keeps the exact product up to a
// power of ω, never raises the (T, Clifford, length) cost, and leaves its
// input untouched.
func TestRewriteProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 600; trial++ {
		tab := gates.Shared(trial % 6)
		seq := make(gates.Sequence, rng.Intn(61))
		for i := range seq {
			seq[i] = gates.Gate(rng.Intn(int(gates.Tdg) + 1))
		}
		in := seq.String()
		rw := Rewrite(seq, tab)
		if seq.String() != in {
			t.Fatalf("MaxT %d: Rewrite modified its input %s → %s", tab.MaxT, in, seq)
		}
		if got, want := exactProduct(rw).CanonicalKey(), exactProduct(seq).CanonicalKey(); got != want {
			t.Fatalf("MaxT %d: product changed\n in: %v\nout: %v", tab.MaxT, seq, rw)
		}
		if costAbove(rewriteCost(rw), rewriteCost(seq)) {
			t.Fatalf("MaxT %d: cost rose %v → %v\n in: %v\nout: %v", tab.MaxT, rewriteCost(seq), rewriteCost(rw), seq, rw)
		}
	}
}

// TestRewriteMaxTZeroTerminates: with a table that holds no T gate, a T
// fills no window; Rewrite copies it through instead of looping on it.
func TestRewriteMaxTZeroTerminates(t *testing.T) {
	done := make(chan gates.Sequence, 1)
	go func() { done <- Rewrite(gates.Sequence{gates.H, gates.T, gates.H}, gates.Shared(0)) }()
	select {
	case rw := <-done:
		if got := rw.String(); got != "H T H" {
			t.Fatalf("Rewrite(H T H) at MaxT 0 = %s, want H T H", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Rewrite at MaxT 0 did not return")
	}
}
