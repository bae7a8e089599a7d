package mat

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := Mul(a, b, 1)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	Mul(NewDense(2, 3), NewDense(2, 3), 1)
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("T shape = %dx%d", at.Rows, at.Cols)
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("T values wrong: %+v", at)
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	got := MulVec(a, []float64{1, 1})
	if got[0] != 3 || got[1] != 7 {
		t.Fatalf("MulVec = %v", got)
	}
}

func isOrthonormalCols(m *Dense, eps float64) bool {
	for i := 0; i < m.Cols; i++ {
		for j := i; j < m.Cols; j++ {
			var dot float64
			for r := 0; r < m.Rows; r++ {
				dot += m.At(r, i) * m.At(r, j)
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(dot-want) > eps {
				return false
			}
		}
	}
	return true
}

func TestQRReconstruction(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, shape := range [][2]int{{5, 3}, {10, 10}, {20, 4}, {3, 1}} {
		a := Gaussian(rng, shape[0], shape[1])
		q, r := QR(a)
		if !isOrthonormalCols(q, 1e-9) {
			t.Fatalf("Q not orthonormal for shape %v", shape)
		}
		if d := FrobeniusDiff(Mul(q, r, 1), a); d > 1e-9 {
			t.Fatalf("QR reconstruction error %v for shape %v", d, shape)
		}
		// R upper-triangular.
		for i := 0; i < r.Rows; i++ {
			for j := 0; j < i; j++ {
				if math.Abs(r.At(i, j)) > 1e-10 {
					t.Fatalf("R not upper triangular at (%d,%d): %v", i, j, r.At(i, j))
				}
			}
		}
	}
}

func TestQRRankDeficient(t *testing.T) {
	// A matrix with a zero column must not produce NaNs.
	a := FromRows([][]float64{{1, 0, 2}, {2, 0, 4}, {3, 0, 5}})
	q, r := QR(a)
	prod := Mul(q, r, 1)
	if d := FrobeniusDiff(prod, a); d > 1e-9 {
		t.Fatalf("rank-deficient QR reconstruction error %v", d)
	}
	for _, v := range q.Data {
		if math.IsNaN(v) {
			t.Fatal("NaN in Q for rank-deficient input")
		}
	}
}

func TestJacobiEigenKnown(t *testing.T) {
	// Symmetric matrix with known eigenvalues 3 and 1.
	s := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, v := JacobiEigen(s)
	if math.Abs(vals[0]-3) > 1e-10 || math.Abs(vals[1]-1) > 1e-10 {
		t.Fatalf("eigenvalues = %v, want [3 1]", vals)
	}
	if !isOrthonormalCols(v, 1e-9) {
		t.Fatal("eigenvectors not orthonormal")
	}
}

func TestJacobiEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	for _, n := range []int{1, 2, 5, 12, 30} {
		g := Gaussian(rng, n, n)
		s := Mul(g, g.T(), 1) // symmetric PSD
		vals, v := JacobiEigen(s)
		// Reconstruct v * diag(vals) * v^T.
		d := NewDense(n, n)
		for i := 0; i < n; i++ {
			d.Set(i, i, vals[i])
		}
		rec := Mul(Mul(v, d, 1), v.T(), 1)
		if diff := FrobeniusDiff(rec, s); diff > 1e-7*(1+FrobeniusDiff(s, NewDense(n, n))) {
			t.Fatalf("n=%d reconstruction error %v", n, diff)
		}
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-12 {
				t.Fatalf("eigenvalues not descending: %v", vals)
			}
		}
	}
}

func TestRandomizedSVDLowRank(t *testing.T) {
	// Build an exactly rank-3 matrix and verify rank-3 RSVD recovers it.
	rng := rand.New(rand.NewPCG(7, 7))
	u := Gaussian(rng, 40, 3)
	v := Gaussian(rng, 25, 3)
	a := Mul(u, v.T(), 1)
	res := RandomizedSVD(a, 3, 5, 2, rng, 0)
	d := NewDense(3, 3)
	for i := 0; i < 3; i++ {
		d.Set(i, i, res.S[i])
	}
	rec := Mul(Mul(res.U, d, 1), res.V.T(), 1)
	if diff := FrobeniusDiff(rec, a); diff > 1e-6 {
		t.Fatalf("rank-3 reconstruction error %v", diff)
	}
	if !isOrthonormalCols(res.U, 1e-6) || !isOrthonormalCols(res.V, 1e-6) {
		t.Fatal("U or V not orthonormal")
	}
	for i := 1; i < len(res.S); i++ {
		if res.S[i] > res.S[i-1]+1e-9 {
			t.Fatalf("singular values not descending: %v", res.S)
		}
	}
}

func TestRandomizedSVDMatchesJacobiOnCovariance(t *testing.T) {
	// The top singular values of a matrix equal the square roots of the top
	// eigenvalues of A^T A.
	rng := rand.New(rand.NewPCG(11, 13))
	a := Gaussian(rng, 60, 12)
	res := RandomizedSVD(a, 4, 8, 4, rng, 0)
	ata := Mul(a.T(), a, 1)
	vals, _ := JacobiEigen(ata)
	for i := 0; i < 4; i++ {
		want := math.Sqrt(vals[i])
		if math.Abs(res.S[i]-want) > 1e-5*(1+want) {
			t.Fatalf("singular value %d = %v, want %v", i, res.S[i], want)
		}
	}
}

func TestRandomizedSVDClampsRank(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 4))
	a := Gaussian(rng, 5, 3)
	res := RandomizedSVD(a, 10, 5, 1, rng, 0) // k larger than min dim
	if len(res.S) > 3 {
		t.Fatalf("rank not clamped: %d singular values", len(res.S))
	}
}

// Property: (A*B)^T == B^T * A^T.
func TestMulTransposeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 17))
		m, k, n := 1+r.IntN(8), 1+r.IntN(8), 1+r.IntN(8)
		a := Gaussian(r, m, k)
		b := Gaussian(r, k, n)
		left := Mul(a, b, 1).T()
		right := Mul(b.T(), a.T(), 1)
		return FrobeniusDiff(left, right) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// mulSerial is the product the sketch was first written against: one
// goroutine, rows of a outermost, zeros of a skipped. The row-parallel
// Mul and the transpose-free MulTA must reproduce it bit for bit.
func mulSerial(a, b *Dense) *Dense {
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for kk, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			for j, bv := range b.Row(kk) {
				out.Data[i*out.Cols+j] += av * bv
			}
		}
	}
	return out
}

func sameBits(t *testing.T, ctx string, got, want *Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", ctx, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			t.Fatalf("%s: element %d = %v, want %v", ctx, i, got.Data[i], v)
		}
	}
}

// TestMulParallelBitIdentical runs the sketch's own shapes (a 6000×100
// sample against a 9-column sketch, both ways round) and a few ragged
// ones at 1–5 workers. Some entries are exact zeros, so the skip is
// exercised.
func TestMulParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 3))
	sparse := func(rows, cols int) *Dense {
		m := Gaussian(rng, rows, cols)
		for i := range m.Data {
			if rng.IntN(16) == 0 {
				m.Data[i] = 0
			}
		}
		return m
	}
	for _, sh := range [][3]int{{6000, 100, 9}, {100, 6000, 9}, {9, 6000, 100}, {1, 1, 1}, {3, 7, 5}, {5, 2, 1}} {
		a, b := sparse(sh[0], sh[1]), sparse(sh[1], sh[2])
		want := mulSerial(a, b)
		at := a.T()
		for workers := 1; workers <= 5; workers++ {
			sameBits(t, "Mul", Mul(a, b, workers), want)
			sameBits(t, "MulTA", MulTA(at, b, workers), want)
		}
	}
}
