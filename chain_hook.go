//go:build !race

package cssi

// chainHooks is false outside race builds: the schedule points of a
// multi-chain read compile to nothing, and setChainHook reports false.
const chainHooks = false

func setChainHook(func(g int, done bool)) bool { return false }

func loadChainHook() func(g int, done bool) { return nil }
