//go:build race

package mps

// raceEnabled reports a -race build, under which allocation counts are not
// comparable.
const raceEnabled = true
