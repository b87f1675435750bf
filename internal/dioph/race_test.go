//go:build race

package dioph

// raceEnabled reports a -race build, under which allocation counts are not
// comparable.
const raceEnabled = true
