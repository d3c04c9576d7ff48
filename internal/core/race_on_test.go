//go:build race

package core

// raceEnabled reports that the tests were built with -race.
const raceEnabled = true
