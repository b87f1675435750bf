package core

// Engine microbenchmarks and the design-choice ablations DESIGN.md calls
// out, kept next to the engine they measure. Service-layer benchmarks
// (BenchmarkCompileBatch) live in the synth package; paper-artifact
// benchmarks live at the repository root.

import (
	"math/rand"
	"testing"

	"repro/internal/gates"
	"repro/internal/qmat"
)

func BenchmarkTrasynSynthesizeT10(b *testing.B) {
	cfg := DefaultConfig(gates.Shared(5), 5, 2, 1000)
	cfg.Rng = rand.New(rand.NewSource(1))
	u := qmat.HaarRandom(rand.New(rand.NewSource(2)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Synthesize(u, cfg)
		if i == 0 {
			b.ReportMetric(float64(res.TCount), "tcount")
			b.ReportMetric(res.Error, "error")
		}
	}
}

func BenchmarkTrasynSynthesizeT20(b *testing.B) {
	cfg := DefaultConfig(gates.Shared(5), 5, 4, 2000)
	cfg.MinSites = 4
	cfg.Rng = rand.New(rand.NewSource(1))
	u := qmat.HaarRandom(rand.New(rand.NewSource(2)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Synthesize(u, cfg)
		if i == 0 {
			b.ReportMetric(float64(res.TCount), "tcount")
			b.ReportMetric(res.Error, "error")
		}
	}
}

// AblationBudgetSplit: same total T budget, different per-tensor splits.
// Small-budget/long chains are cheaper per sample and finer-grained.
func BenchmarkAblationBudgetM5L4(b *testing.B)  { ablationSplit(b, 5, 4) }
func BenchmarkAblationBudgetM10L2(b *testing.B) { ablationSplit(b, 10, 2) }

func ablationSplit(b *testing.B, m, l int) {
	u := qmat.HaarRandom(rand.New(rand.NewSource(3)))
	cfg := DefaultConfig(gates.Shared(m), m, l, 1500)
	cfg.MinSites = l
	cfg.Rng = rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Synthesize(u, cfg)
		if i == 0 {
			b.ReportMetric(res.Error, "error")
			b.ReportMetric(float64(res.TCount), "tcount")
		}
	}
}

// AblationSamplerBeamVsRandom: deterministic beam search vs perfect
// sampling at matched candidate counts.
func BenchmarkAblationSamplerRandom(b *testing.B) { ablationSampler(b, false) }
func BenchmarkAblationSamplerBeam(b *testing.B)   { ablationSampler(b, true) }

func ablationSampler(b *testing.B, beam bool) {
	u := qmat.HaarRandom(rand.New(rand.NewSource(5)))
	cfg := DefaultConfig(gates.Shared(5), 5, 3, 1024)
	cfg.MinSites = 3
	cfg.UseBeam = beam
	cfg.BeamWidth = 256
	cfg.Rng = rand.New(rand.NewSource(6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Synthesize(u, cfg)
		if i == 0 {
			b.ReportMetric(res.Error, "error")
		}
	}
}

// AblationRewrite: step-3 post-processing on vs off (Clifford savings).
func BenchmarkAblationWithRewrite(b *testing.B) {
	seqLen := 0
	tab := gates.Shared(5)
	rng := rand.New(rand.NewSource(7))
	alphabet := []gates.Gate{gates.H, gates.S, gates.T, gates.X, gates.Z, gates.Tdg, gates.Sdg}
	seqs := make([]gates.Sequence, 32)
	for i := range seqs {
		s := make(gates.Sequence, 60)
		for j := range s {
			s[j] = alphabet[rng.Intn(len(alphabet))]
		}
		seqs[i] = s
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := Rewrite(seqs[i%len(seqs)], tab)
		seqLen += len(out)
	}
	if b.N > 0 {
		b.ReportMetric(float64(seqLen)/float64(b.N), "outlen")
	}
}

// BenchmarkTrasynAxis is TRASYN as the trasyn backend configures it (T ≤ 5,
// four sites, k = 2,000) at ε = 2e-2, qaoa_auto's share per rotation, on an
// Rz target that no operator with T ≤ 15 meets: its two- and three-site
// rungs are deferred (see TRASYN).
func BenchmarkTrasynAxis(b *testing.B) {
	u := qmat.Rz(axisAngle)
	if gates.Reaches(u, 2e-2, 15) {
		b.Fatal("an operator with T ≤ 15 meets the target: its rungs are not deferred")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(gates.Shared(5), 5, 4, 2000)
		cfg.Epsilon = 2e-2
		cfg.Rng = rand.New(rand.NewSource(1))
		res := TRASYN(u, cfg)
		if i == 0 {
			b.ReportMetric(float64(res.TCount), "tcount")
			b.ReportMetric(float64(res.Sites), "sites")
		}
	}
}

// axisAngle is BenchmarkTrasynAxis's Rz angle.
const axisAngle = 0.5
