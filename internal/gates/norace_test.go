//go:build !race

package gates

const raceEnabled = false
