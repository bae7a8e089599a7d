//go:build !amd64

package vec

// useAVX is false off amd64: SqDist and SqDistBound run the scalar loop.
const useAVX = false

func sqDistAVX(a, b []float32, limit float64) float64 {
	panic("vec: no AVX path on this architecture")
}
