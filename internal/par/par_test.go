package par

import (
	"sync/atomic"
	"testing"
)

func TestForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1001} {
		for _, workers := range []int{0, 1, 3, 8, 2000} {
			var count int64
			seen := make([]int32, n)
			For(n, workers, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
					atomic.AddInt64(&count, 1)
				}
			})
			if count != int64(n) {
				t.Fatalf("n=%d workers=%d: visited %d", n, workers, count)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, c)
				}
			}
		}
	}
}
