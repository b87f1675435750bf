package gridsynth

import "testing"

// BenchmarkRz times one Rz synthesis per op over the ε ladder, cycling
// through five fixed angles (TestAllocBudget's).
func BenchmarkRz(b *testing.B) {
	for _, tc := range []struct {
		name string
		eps  float64
	}{{"1e-2", 1e-2}, {"1e-3", 1e-3}, {"1e-4", 1e-4}, {"1e-5", 1e-5}, {"1e-6", 1e-6}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				if _, err := Rz(1.0+float64(i%5)*0.21, tc.eps, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
