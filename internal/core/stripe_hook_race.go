//go:build race

package core

import "sync/atomic"

// stripeHooks compiles the striped read's schedule points in: race
// builds are where the tests that force its schedules run.
const stripeHooks = true

var stripeHook atomic.Pointer[func(StripePoint)]

// SetStripeHook installs fn at the schedule points of the striped reads
// that start after it (nil removes it) and reports whether hooks are
// compiled in — under the race detector only. While one is installed an
// offer waits for a helper instead of falling back to one stripe, so a
// test can force each schedule. Tests only.
func SetStripeHook(fn func(StripePoint)) bool {
	stripeHook.Store(&fn)
	return true
}

func loadStripeHook() func(StripePoint) {
	if p := stripeHook.Load(); p != nil {
		return *p
	}
	return nil
}
