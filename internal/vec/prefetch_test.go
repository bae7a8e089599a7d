package vec

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestPrefetchIsAHint holds Prefetch to a hint: over every length 0…70,
// on sub-slices starting 0…15 floats into their backing array (so at
// and off line boundaries) and ending at its last float, it faults
// nowhere, writes nothing in or before the slice, and leaves SqDist and
// SqDistBound with the bits they give unprefetched.
func TestPrefetchIsAHint(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 73))
	for n := 0; n <= 70; n++ {
		for off := 0; off < 16; off++ {
			// buf ends exactly at v's end, so a prefetch past it would
			// touch memory the slice does not own.
			buf := randVec(rng, off+n)
			v, w := buf[off:off+n:off+n], randVec(rng, n)
			before := slices.Clone(buf)
			want := SqDist(v, w)
			limits := []float64{math.Inf(1), want, 0.5 * want, 0}
			wantBound := make([]float64, len(limits))
			for i, l := range limits {
				wantBound[i] = SqDistBound(v, w, l)
			}
			Prefetch(v)
			Prefetch(w)
			if got := SqDist(v, w); !sameBits(got, want) {
				t.Fatalf("n=%d off=%d: SqDist = %v after Prefetch, %v before", n, off, got, want)
			}
			for i, l := range limits {
				if got := SqDistBound(v, w, l); !sameBits(got, wantBound[i]) {
					t.Fatalf("n=%d off=%d limit=%v: SqDistBound = %v after Prefetch, %v before", n, off, l, got, wantBound[i])
				}
			}
			for i := range buf {
				if math.Float32bits(buf[i]) != math.Float32bits(before[i]) {
					t.Fatalf("n=%d off=%d: Prefetch wrote buf[%d]", n, off, i)
				}
			}
		}
	}
	Prefetch(nil)
}
