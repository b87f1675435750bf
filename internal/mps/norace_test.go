//go:build !race

package mps

const raceEnabled = false
