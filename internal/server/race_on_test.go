//go:build race

package server

// raceEnabled reports whether the race detector is compiled in. Under
// race, sync.Pool intentionally bypasses its caches, so allocation
// ceilings cannot hold and are skipped.
const raceEnabled = true
