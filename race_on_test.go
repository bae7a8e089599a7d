//go:build race

package cssi

// raceEnabled reports whether the race detector is compiled in. Under
// race, sync.Pool intentionally bypasses its caches to widen coverage,
// so zero-allocation assertions cannot hold and are skipped.
const raceEnabled = true
