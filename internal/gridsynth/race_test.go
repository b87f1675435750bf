//go:build race

package gridsynth

// raceEnabled reports a -race build, under which the search runs many
// times slower: the golden replay then checks a sample of its entries.
const raceEnabled = true
