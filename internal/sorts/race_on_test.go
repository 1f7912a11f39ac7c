//go:build race

package sorts

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
