//go:build !race

package cssi

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
