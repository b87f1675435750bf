//go:build race

package optimize_test

// raceEnabled reports a -race build, under which lowering the golden
// fixtures through gridsynth is many times slower and allocation counts
// are not comparable.
const raceEnabled = true
