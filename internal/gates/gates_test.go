package gates

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/qmat"
	"repro/internal/ring"
)

func TestGateMatricesConsistent(t *testing.T) {
	for g := I; g < numGates; g++ {
		if !qmat.ApproxEqual(g.M2(), g.UMat().Complex(), 1e-12) {
			t.Errorf("%v: numeric and exact matrices disagree", g)
		}
		adj := qmat.Mul(g.M2(), g.Adjoint().M2())
		if !qmat.ApproxEqual(adj, qmat.I2(), 1e-12) {
			t.Errorf("%v: g·g† ≠ I", g)
		}
	}
}

func TestSequenceRoundTrip(t *testing.T) {
	s := Sequence{H, T, S, H, T, Z, Sdg, Tdg, X}
	parsed, err := Parse(s.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.String() != s.String() {
		t.Fatalf("parse round trip: %q vs %q", parsed.String(), s.String())
	}
	if _, err := Parse("H FOO"); err == nil {
		t.Error("expected parse error")
	}
}

func TestSequenceCounts(t *testing.T) {
	s := Sequence{H, T, S, H, T, Z, Sdg, Tdg, X}
	if s.TCount() != 3 {
		t.Errorf("TCount = %d, want 3", s.TCount())
	}
	if s.CliffordCount() != 4 {
		t.Errorf("CliffordCount = %d, want 4 (H S H Sdg)", s.CliffordCount())
	}
}

func TestSequenceAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomWord(r, 10)
		p := qmat.Mul(s.Matrix(), s.Adjoint().Matrix())
		return qmat.ApproxEqual(p, qmat.I2(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func randomWord(r *rand.Rand, n int) Sequence {
	alphabet := []Gate{X, Y, Z, H, S, Sdg, T, Tdg}
	s := make(Sequence, n)
	for i := range s {
		s[i] = alphabet[r.Intn(len(alphabet))]
	}
	return s
}

func TestCliffordGroupSize(t *testing.T) {
	cl := CliffordGroup()
	if len(cl) != 24 {
		t.Fatalf("Clifford group has %d elements, want 24", len(cl))
	}
	if len(cl[0].Seq) != 0 {
		t.Errorf("first Clifford should be identity, got %v", cl[0].Seq)
	}
	seen := map[ring.Key]bool{}
	for _, c := range cl {
		if seen[c.Key] {
			t.Fatal("duplicate Clifford")
		}
		seen[c.Key] = true
		if got := c.Seq.UMat(); !got.EqualUpToPhase(c.U) {
			t.Fatal("Clifford sequence does not reproduce its matrix")
		}
		if c.Seq.TCount() != 0 {
			t.Fatal("Clifford sequence contains T gates")
		}
	}
}

func TestCliffordClosure(t *testing.T) {
	cl := CliffordGroup()
	for _, a := range cl {
		for _, b := range cl {
			if CliffordIndex(a.U.Mul(b.U)) < 0 {
				t.Fatalf("product of Cliffords not in group")
			}
		}
	}
}

func TestCliffordIndexRejectsT(t *testing.T) {
	if CliffordIndex(T.UMat()) >= 0 {
		t.Error("T should not be a Clifford")
	}
}

// TestEnumerationCountLaw checks the paper's count of unique matrices:
// 24·(3·2^t − 2) operators with T count ≤ t (§3.3, step 0).
func TestEnumerationCountLaw(t *testing.T) {
	tab := BuildTable(7)
	cum := 0
	for lvl := 0; lvl <= 7; lvl++ {
		cum += len(tab.Levels[lvl])
		want := 24 * (3*(1<<uint(lvl)) - 2)
		if cum != want {
			t.Fatalf("cumulative count at T=%d is %d, want %d", lvl, cum, want)
		}
	}
}

func TestEnumerationEntriesAreConsistent(t *testing.T) {
	tab := Shared(5)
	rng := rand.New(rand.NewSource(2))
	for lvl := 0; lvl <= 5; lvl++ {
		for trial := 0; trial < 40; trial++ {
			es := tab.Levels[lvl]
			e := &es[rng.Intn(len(es))]
			seq := e.Sequence()
			if seq.TCount() != int(e.TCount) || int(e.TCount) != lvl {
				t.Fatalf("entry T count mismatch: seq=%d entry=%d level=%d", seq.TCount(), e.TCount, lvl)
			}
			if seq.CliffordCount() != int(e.NonPauli) {
				t.Fatalf("entry NonPauli mismatch: %d vs %d", seq.CliffordCount(), e.NonPauli)
			}
			if !qmat.ApproxEqual(seq.Matrix(), e.M, 1e-9) {
				t.Fatal("entry matrix does not match its sequence")
			}
		}
	}
}

// TestLookupFindsMinimalTCount: the exact product of ANY Clifford+T word
// with w T gates must be found in the table with T count ≤ w. This is the
// property trasyn's step-3 rewriting and exact synthesis both rely on.
func TestLookupFindsMinimalTCount(t *testing.T) {
	tab := Shared(6)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		w := randomWord(rng, 3+rng.Intn(15))
		tc := w.TCount()
		if tc > 6 {
			continue
		}
		e, ok := tab.Find(w.UMat())
		if !ok {
			t.Fatalf("word %v (T=%d) not found in table", w, tc)
		}
		if int(e.TCount) > tc {
			t.Fatalf("table entry T=%d exceeds word T=%d for %v", e.TCount, tc, w)
		}
		// The found entry must be the same operator up to phase.
		if d := qmat.Distance(e.M, w.Matrix()); d > 1e-7 {
			t.Fatalf("lookup returned wrong operator: distance %v", d)
		}
	}
}

// TestFindMissesOutOfRange: a matrix with a coefficient far outside any
// entry's range, or a denominator exponent no entry has, must miss, not
// alias the entry its coefficients would truncate to.
func TestFindMissesOutOfRange(t *testing.T) {
	tab := Shared(4)
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 200; trial++ {
		w := randomWord(rng, 1+rng.Intn(12)).UMat()
		randomWord(rng, 1+rng.Intn(12)) // keeps the draws of the words below
		if _, ok := tab.Find(w); !ok {
			continue
		}
		for _, shift := range []int64{256, -256, 128} {
			far := w
			far.E[1][0].B += shift
			if _, ok := tab.Find(far); ok {
				t.Fatalf("%v found although a coefficient was shifted by %d", far, shift)
			}
		}
	}
	big := ring.UIdentity()
	big.K = 200
	if _, ok := tab.Find(big); ok {
		t.Fatal("denominator exponent 200 found")
	}
}

func TestCollect(t *testing.T) {
	tab := Shared(4)
	all := tab.Collect(0, 4)
	if len(all) != tab.Count() {
		t.Fatalf("Collect(0,4) returned %d, want %d", len(all), tab.Count())
	}
	only3 := tab.Collect(3, 3)
	if len(only3) != 24*3*(1<<2) {
		t.Fatalf("Collect(3,3) returned %d, want %d", len(only3), 24*3*(1<<2))
	}
	for _, e := range only3 {
		if e.TCount != 3 {
			t.Fatal("Collect returned wrong level")
		}
	}
	if got := tab.Collect(5, 9); got != nil {
		t.Fatal("Collect beyond MaxT should be empty")
	}
}

func TestSharedCaches(t *testing.T) {
	a := Shared(3)
	b := Shared(3)
	if a != b {
		t.Error("Shared should cache tables")
	}
}

// TestSharedRefusesBadBudget: a budget BuildTable refuses makes Shared
// panic with BuildTable's message on every call, not just the first, and
// leaves nothing cached, so a valid budget still works afterwards.
func TestSharedRefusesBadBudget(t *testing.T) {
	panicOf := func(f func(int) *Table, maxT int) (msg any) {
		defer func() { msg = recover() }()
		f(maxT)
		return nil
	}
	for _, maxT := range []int{25, -1} {
		want := panicOf(BuildTable, maxT)
		for call := 1; call <= 2; call++ {
			if got := panicOf(Shared, maxT); got == nil || got != want {
				t.Fatalf("Shared(%d), call %d: panic %v, want BuildTable's %v", maxT, call, got, want)
			}
		}
		sharedMu.Lock()
		_, cached := sharedTab[maxT]
		sharedMu.Unlock()
		if cached {
			t.Errorf("Shared(%d) cached an entry", maxT)
		}
	}
	if tab := Shared(5); tab == nil || tab.MaxT != 5 {
		t.Fatalf("Shared(5) after the refusals = %v", tab)
	}
}

// TestSharedConcurrentFirstUse hammers Shared from many goroutines across
// several budgets simultaneously, including budgets no other test touches,
// so the per-budget construction race is exercised under -race: every
// caller must observe the same fully built table.
func TestSharedConcurrentFirstUse(t *testing.T) {
	budgets := []int{1, 2, 4, 5}
	const workers = 16
	got := make([][]*Table, len(budgets))
	for i := range got {
		got[i] = make([]*Table, workers)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for bi, maxT := range budgets {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(bi, w, maxT int) {
				defer wg.Done()
				<-start
				tab := Shared(maxT)
				// Use the table immediately: a torn/partial table would
				// trip the race detector or fail the lookup below.
				if _, found := tab.Find(ring.UIdentity()); !found {
					t.Errorf("Shared(%d): identity not found", maxT)
				}
				got[bi][w] = tab
			}(bi, w, maxT)
		}
	}
	close(start)
	wg.Wait()
	for bi, maxT := range budgets {
		for w := 1; w < workers; w++ {
			if got[bi][w] != got[bi][0] {
				t.Fatalf("Shared(%d) returned distinct tables under concurrency", maxT)
			}
		}
	}
}

// TestSharedViewMatchesBuild: a view of a larger table — what Shared
// returns once a larger one is built — is indistinguishable from
// BuildTable of its own budget: the same Count, the same Collect order,
// the same Find hits, and misses for every entry of the higher levels.
func TestSharedViewMatchesBuild(t *testing.T) {
	big := BuildTable(6)
	for k := 0; k <= 5; k++ {
		view, want := big.view(k), BuildTable(k)
		if view.Count() != want.Count() {
			t.Fatalf("budget %d: view holds %d entries, BuildTable %d", k, view.Count(), want.Count())
		}
		got, exp := view.Collect(0, k), want.Collect(0, k)
		for i := range exp {
			if *got[i] != *exp[i] {
				t.Fatalf("budget %d: Collect entry %d differs", k, i)
			}
		}
		for _, e := range big.Collect(0, k+1) {
			u := e.Sequence().UMat()
			ge, gok := view.Find(u)
			we, wok := want.Find(u)
			if gok != wok || gok && *ge != *we {
				t.Fatalf("budget %d: Find(%v) = %v, %t; BuildTable's %v, %t", k, e.Sequence(), ge, gok, we, wok)
			}
		}
	}
	Shared(6)
	sharedMu.Lock()
	larger := builtAbove(0)
	sharedMu.Unlock()
	if &Shared(0).Levels[0][0] != &larger.Levels[0][0] {
		t.Error("Shared(0) built its own table although a larger one was built")
	}
}

func BenchmarkBuildTableT8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		BuildTable(8)
	}
}

func BenchmarkTableLookup(b *testing.B) {
	tab := Shared(6)
	rng := rand.New(rand.NewSource(4))
	words := make([]ring.UMat, 64)
	for i := range words {
		words[i] = randomWord(rng, 12).UMat()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Find(words[i%len(words)])
	}
}

// BenchmarkFindHits: Find on the exact matrix of every T ≤ 5 entry, the
// table trasyn rewrites against; every call hits.
func BenchmarkFindHits(b *testing.B) {
	tab := Shared(5)
	es := tab.Collect(0, 5)
	us := make([]ring.UMat, len(es))
	for i, e := range es {
		us[i] = e.Sequence().UMat()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tab.Find(us[i%len(us)]); !ok {
			b.Fatal("entry not found")
		}
	}
}

// TestRightMulMatchesMul: the gate-specialized multiply equals the
// generic one for every gate on random exact products, and so does
// Sequence.UMat, which is built from it.
func TestRightMulMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 300; trial++ {
		seq := make(Sequence, rng.Intn(61))
		u := ring.UIdentity()
		for i := range seq {
			seq[i] = Gate(rng.Intn(int(numGates)))
			u = u.Mul(seq[i].UMat())
		}
		if got := seq.UMat(); got != u {
			t.Fatalf("%v: Sequence.UMat %v, generic product %v", seq, got, u)
		}
		for g := I; g < numGates; g++ {
			got := u
			g.RightMul(&got)
			if want := u.Mul(g.UMat()); got != want {
				t.Fatalf("%v·%v: RightMul %v, Mul %v", seq, g, got, want)
			}
		}
	}
}
