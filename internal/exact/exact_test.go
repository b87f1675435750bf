package exact

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/gates"
	"repro/internal/qmat"
	"repro/internal/ring"
)

// exactOf returns the exact product of seq, multiplied out in big.Int
// (SequenceBU) and narrowed to int64.
func exactOf(t testing.TB, seq gates.Sequence) ring.UMat {
	t.Helper()
	u, ok := SequenceBU(seq).ToUMat()
	if !ok {
		t.Fatalf("product of %v does not fit int64", seq)
	}
	return u
}

func randomWord(r *rand.Rand, n int) gates.Sequence {
	alphabet := []gates.Gate{gates.X, gates.Y, gates.Z, gates.H, gates.S, gates.Sdg, gates.T, gates.Tdg}
	s := make(gates.Sequence, n)
	for i := range s {
		s[i] = alphabet[r.Intn(len(alphabet))]
	}
	return s
}

// TestSynthesizeRoundTrip: synthesizing the exact matrix of a random word
// must reproduce the operator exactly (up to phase).
func TestSynthesizeRoundTrip(t *testing.T) {
	tab := gates.Shared(5)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 150; trial++ {
		w := randomWord(rng, 3+rng.Intn(40))
		m := exactOf(t, w)
		seq, err := Synthesize(m, tab)
		if err != nil {
			t.Fatalf("Synthesize failed on %v: %v", w, err)
		}
		if !exactOf(t, seq).EqualUpToPhase(m) {
			t.Fatalf("synthesis differs from target:\nword %v\nout  %v", w, seq)
		}
	}
}

// TestSynthesizeTCountNearOptimal: the output of exact synthesis should not
// use wildly more T gates than the input word (the sde bound: T ≈ 2K).
func TestSynthesizeTCountBound(t *testing.T) {
	tab := gates.Shared(5)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		w := randomWord(rng, 10+rng.Intn(30))
		m := exactOf(t, w)
		seq, err := Synthesize(m, tab)
		if err != nil {
			t.Fatal(err)
		}
		// The minimal T count for an operator with sde K is ≥ 2K−4-ish; the
		// peeling algorithm achieves ≤ 2K+const. Check against the input.
		if seq.TCount() > w.TCount()+4 {
			t.Fatalf("T count blew up: word T=%d, synth T=%d (K=%d)", w.TCount(), seq.TCount(), m.K)
		}
	}
}

// TestFromColumnsUnitary: the gridsynth form must be exactly unitary
// whenever u·u† + t·t† = 2^k.
func TestFromColumnsUnitary(t *testing.T) {
	// u = 1+ω, t chosen so that norms sum to 2^k: try u·u†+t·t† for simple
	// pairs by brute scan over small elements.
	rng := rand.New(rand.NewSource(3))
	found := 0
	for trial := 0; trial < 4000 && found < 20; trial++ {
		u := ring.ZOmega{A: rng.Int63n(5) - 2, B: rng.Int63n(5) - 2, C: rng.Int63n(5) - 2, D: rng.Int63n(5) - 2}
		tt := ring.ZOmega{A: rng.Int63n(5) - 2, B: rng.Int63n(5) - 2, C: rng.Int63n(5) - 2, D: rng.Int63n(5) - 2}
		sum := u.Norm2().Add(tt.Norm2())
		if sum.B != 0 || sum.A <= 0 {
			continue
		}
		// Is sum.A a power of two?
		a := sum.A
		k := 0
		for a > 1 && a%2 == 0 {
			a /= 2
			k++
		}
		if a != 1 {
			continue
		}
		for g := 0; g < 2; g++ {
			m := FromColumns(u, tt, k, g)
			if m.Mul(m.Dagger()) != ring.UIdentity() {
				t.Fatalf("FromColumns not unitary: u=%v t=%v k=%d g=%d", u, tt, k, g)
			}
			found++
			seq, err := Synthesize(m, gates.Shared(5))
			if err != nil {
				t.Fatalf("Synthesize failed on gridsynth form: %v", err)
			}
			if !exactOf(t, seq).EqualUpToPhase(m) {
				t.Fatal("gridsynth form round trip failed")
			}
		}
	}
	if found < 10 {
		t.Fatalf("only %d unitary instances found; test too weak", found)
	}
}

// TestSynthesizeRejectsNonUnitary.
func TestSynthesizeRejectsNonUnitary(t *testing.T) {
	one := ring.ZOmegaFromInt(1)
	bad := ring.UMat{E: [2][2]ring.ZOmega{{one, one}, {{}, one}}}
	if _, err := Synthesize(bad, gates.Shared(4)); err == nil {
		t.Error("expected error for non-unitary input")
	}
}

// TestSynthesizeCliffordsAndPhases: pure Cliffords must come back with
// zero T gates.
func TestSynthesizeCliffords(t *testing.T) {
	tab := gates.Shared(4)
	for _, c := range gates.CliffordGroup() {
		m := exactOf(t, c.Seq)
		seq, err := Synthesize(m, tab)
		if err != nil {
			t.Fatalf("Clifford synthesis failed: %v", err)
		}
		if seq.TCount() != 0 {
			t.Fatalf("Clifford %v synthesized with %d T gates", c.Seq, seq.TCount())
		}
		if !exactOf(t, seq).EqualUpToPhase(m) {
			t.Fatal("Clifford round trip failed")
		}
	}
}

// TestNumericAgreement: exact product and float product agree.
func TestNumericAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		w := randomWord(rng, 20)
		seq, err := Synthesize(exactOf(t, w), gates.Shared(5))
		if err != nil {
			t.Fatal(err)
		}
		if d := qmat.Distance(w.Matrix(), seq.Matrix()); d > 1e-7 {
			t.Fatalf("numeric distance %v after exact synthesis", d)
		}
	}
}

// hTWord returns (H·T^±1)^pairs with each sign drawn from rng. Each pair
// adds one T gate and exact synthesis spends about two per unit of K, so K
// grows by about one per two pairs (11 at 20 pairs, 161 at 320) and the
// coefficients like √2^K.
func hTWord(rng *rand.Rand, pairs int) gates.Sequence {
	s := make(gates.Sequence, 0, 2*pairs)
	for i := 0; i < pairs; i++ {
		t := gates.T
		if rng.Intn(2) == 0 {
			t = gates.Tdg
		}
		s = append(s, gates.H, t)
	}
	return s
}

// maxCoeffBits returns the bit length of m's largest coefficient magnitude.
func maxCoeffBits(m BUMat) int {
	n := 0
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			e := m.E[i][j]
			for _, c := range [4]*big.Int{e.A, e.B, e.C, e.D} {
				n = max(n, c.BitLen())
			}
		}
	}
	return n
}

// TestSynthesizeCoefficientBands synthesizes H·T^±1 words of 20 to 320
// pairs, whose exact products fill three coefficient bands: below
// 2^CoeffBits, from there to 2^63, and beyond int64. For every word the
// big.Int reference loop's output must multiply back to the input. Below
// 2^CoeffBits, Synthesize must emit the reference's gates, and the input
// with one coefficient moved must be refused as not unitary on both
// loops; from 2^CoeffBits to 2^63 Synthesize must refuse the input with
// ErrCoeffBound.
func TestSynthesizeCoefficientBands(t *testing.T) {
	tab := gates.Shared(5)
	rng := rand.New(rand.NewSource(6))
	bands := []struct {
		name    string
		maxBits int // largest coefficient bit length in the band
		words   int
	}{
		{"below 2^29", CoeffBits, 0},
		{"2^29 to 2^63", 63, 0},
		{"beyond int64", 1 << 30, 0},
	}
	const words = 60
	for i := 0; i < words; i++ {
		pairs := 20 + i*300/(words-1)
		m := SequenceBU(hTWord(rng, pairs))
		bits := maxCoeffBits(m)
		b := 0
		for bits > bands[b].maxBits {
			b++
		}
		bands[b].words++

		want, err := refSynthesize(m, tab)
		if err != nil {
			t.Fatalf("%d pairs (K=%d, %d-bit coefficients), reference loop: %v", pairs, m.K, bits, err)
		}
		if !SequenceBU(want).EqualUpToPhase(m) {
			t.Fatalf("%d pairs (K=%d): reference output does not multiply back to the input", pairs, m.K)
		}
		u, fits := m.ToUMat()
		switch b {
		case 0:
			got, err := Synthesize(u, tab)
			if err != nil {
				t.Fatalf("%d pairs (K=%d, %d-bit coefficients): %v", pairs, m.K, bits, err)
			}
			if got.String() != want.String() {
				t.Fatalf("%d pairs (K=%d, %d-bit coefficients): int64 loop %v, reference %v",
					pairs, m.K, bits, got, want)
			}
			// Row 0 of a unitary has |e00|² + |e01|² = 2^K; adding 1 to
			// e00 adds 2·Re(e00) + 1 ≠ 0, so the moved matrix is never
			// unitary.
			bad, badU := m, u
			bad.E[0][0] = m.E[0][0].Add(ring.BOmegaFromInt(1))
			badU.E[0][0].A++
			if _, err := Synthesize(badU, tab); !errors.Is(err, ErrNotUnitary) {
				t.Fatalf("%d pairs, moved coefficient: got %v, want ErrNotUnitary", pairs, err)
			}
			if _, err := refSynthesize(bad, tab); !errors.Is(err, ErrNotUnitary) {
				t.Fatalf("%d pairs, moved coefficient, reference loop: got %v, want ErrNotUnitary", pairs, err)
			}
		case 1:
			if _, err := Synthesize(u, tab); !fits || !errors.Is(err, ErrCoeffBound) {
				t.Fatalf("%d pairs (%d-bit coefficients): got %v, want ErrCoeffBound", pairs, bits, err)
			}
		}
	}
	for _, b := range bands {
		t.Logf("%s: %d words", b.name, b.words)
		if b.words == 0 {
			t.Errorf("no word has coefficients %s", b.name)
		}
	}
}

func BenchmarkSynthesize(b *testing.B) {
	tab := gates.Shared(5)
	rng := rand.New(rand.NewSource(5))
	words := make([]ring.UMat, 16)
	for i := range words {
		words[i] = exactOf(b, randomWord(rng, 40))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Synthesize(words[i%len(words)], tab); err != nil {
			b.Fatal(err)
		}
	}
}
