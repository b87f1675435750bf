//go:build !race

package gridsynth

const raceEnabled = false
