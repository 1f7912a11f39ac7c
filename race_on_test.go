//go:build race

package repro

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
