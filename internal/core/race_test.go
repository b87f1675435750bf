//go:build race

package core

// raceEnabled reports a -race build, under which the sampler runs many
// times slower: the golden replay then checks a sample of its targets.
const raceEnabled = true
