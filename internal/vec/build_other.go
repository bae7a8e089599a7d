//go:build !amd64

package vec

func nearestCol2Lanes(x0, x1 float64, c0, c1 []float64, seed float64) (int, float64) {
	panic("vec: no AVX path on this architecture")
}

func nearestCol4Lanes(x0, x1, x2, x3 float64, c0, c1, c2, c3 []float64, seed float64) (int, float64) {
	panic("vec: no AVX path on this architecture")
}

func addScaledRowsAVX(dst, coef []float64, stride int, rows []float64) {
	panic("vec: no AVX path on this architecture")
}

func nearestPrefixAVX(head, cols []float32, k8 int) int {
	panic("vec: no AVX path on this architecture")
}

func foldMinMaxAVX(lo, hi, rows []float32) { panic("vec: no AVX path on this architecture") }

func addWidenedAVX(acc []float64, row []float32) { panic("vec: no AVX path on this architecture") }

func project4AVX(dst []float32, xs *[4][]float32, mean, comp []float64) {
	panic("vec: no AVX path on this architecture")
}
