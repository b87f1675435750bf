package optimize_test

import (
	"testing"

	"repro/optimize"
)

// BenchmarkDriverLowered is one default Driver run over each lowered
// fixture in turn: the optct pass's work on small compiled circuits.
func BenchmarkDriverLowered(b *testing.B) {
	fixtures := loweredFixtures(b)
	d := optimize.NewDriver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fixtures {
			if _, err := d.Run(f.c); err != nil {
				b.Fatal(err)
			}
		}
	}
}
