//go:build !race

package core

// stripeHooks is false outside race builds: the schedule points of a
// striped read compile to nothing, and SetStripeHook reports false.
const stripeHooks = false

func SetStripeHook(func(StripePoint)) bool { return false }

func loadStripeHook() func(StripePoint) { return nil }
