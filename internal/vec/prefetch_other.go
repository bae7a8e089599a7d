//go:build !amd64

package vec

// Prefetch is a no-op off amd64 (see the amd64 body).
func Prefetch(v []float32) {}
