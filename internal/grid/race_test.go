//go:build race

package grid

// raceEnabled reports a -race build, under which the reference tests
// enumerate fewer denominator exponents and angles and the scan golden
// replays a sample of its entries.
const raceEnabled = true
