package vec

// useAVX selects the AVX body of SqDist and SqDistBound, once, from the
// CPU and the OS's saved register state.
var useAVX = hasAVX()

// hasAVX reports whether the CPU has AVX and the OS saves its registers.
func hasAVX() bool

// sqDistLanes runs the scalar loop's 4-float steps over a and b
// (len(b) ≥ len(a)) four lanes per instruction, returning the lane sums
// s0..s3 and whether a checkpoint abandoned at limit.
//
//go:noescape
func sqDistLanes(a, b []float32, limit float64) (s0, s1, s2, s3 float64, abandoned bool)

// sqDistAVX is sqDistBoundRef on the AVX lanes: the len%4 tail and the
// final combine stay in Go, so every result has the reference's bits.
func sqDistAVX(a, b []float32, limit float64) float64 {
	s0, s1, s2, s3, abandoned := sqDistLanes(a, b, limit)
	if !abandoned {
		for i := len(a) &^ 3; i < len(a); i++ {
			d := float64(a[i]) - float64(b[i])
			s0 += d * d
		}
	}
	return (s0 + s1) + (s2 + s3)
}
