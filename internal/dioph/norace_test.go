//go:build !race

package dioph

const raceEnabled = false
