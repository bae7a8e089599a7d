//go:build race

package cssi

import "sync/atomic"

// chainHooks compiles the schedule points of a multi-chain read in:
// race builds are where the tests that force their order run.
const chainHooks = true

var chainHook atomic.Pointer[func(g int, done bool)]

// setChainHook installs fn at the schedule points of the multi-chain
// reads that start after it (nil removes it) and reports whether hooks
// are compiled in — under the race detector only. Stripe g's goroutine
// calls fn(g, false) before its first chain and fn(g, true) after its
// last. Tests only.
func setChainHook(fn func(g int, done bool)) bool {
	chainHook.Store(&fn)
	return true
}

func loadChainHook() func(g int, done bool) {
	if p := chainHook.Load(); p != nil {
		return *p
	}
	return nil
}
