// Package mat implements the dense linear algebra needed by the PCA
// substrate: matrix products, Householder QR, the cyclic Jacobi
// eigendecomposition of symmetric matrices, and the randomized SVD of
// Halko, Martinsson and Tropp that the paper uses (via scikit-learn) for
// projecting word embeddings.
//
// The products are the only part sized by the data: the randomized
// sketch multiplies the sampled rows (thousands × n) by a handful of
// columns some ten times per fit. Mul and MulTA split their output rows
// across workers; every output element is still one accumulator summed
// in ascending inner index, so the result has the same bits at any
// worker count. The rest (QR, Jacobi) works on the narrow sketch and the
// n×n covariance, where clarity is preferred over blocking.
package mat

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/par"
)

// Dense is a row-major dense matrix of float64 values.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewDense allocates a zero matrix with the given shape.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a Dense from the given rows, which must all share one
// length.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("mat: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared storage).
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*out.Cols+i] = v
		}
	}
	return out
}

// Mul returns the matrix product a*b, its rows computed on up to workers
// goroutines (0 = GOMAXPROCS).
func Mul(a, b *Dense, workers int) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Rows, b.Cols)
	par.For(a.Rows, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			for kk, av := range arow {
				if av == 0 {
					continue
				}
				brow := b.Row(kk)
				for j, bv := range brow {
					orow[j] += float64(av * bv)
				}
			}
		}
	})
	return out
}

// MulTA returns aᵀ*b without materialising the transpose: bit for bit
// Mul(a.T(), b). Output row j (column j of a) is one worker's; it walks
// the rows of a and b in step, so element (j,c) accumulates a[i][j]*b[i][c]
// in ascending i, skipping the zeros of a — Mul's order over a.T().
func MulTA(a, b *Dense, workers int) *Dense {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MulTA shape mismatch (%dx%d)ᵀ * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Cols, b.Cols)
	par.For(a.Cols, workers, func(lo, hi int) {
		for i := 0; i < a.Rows; i++ {
			brow := b.Row(i)
			for j, av := range a.Row(i)[lo:hi] {
				if av == 0 {
					continue
				}
				orow := out.Row(lo + j)
				for c, bv := range brow {
					orow[c] += float64(av * bv)
				}
			}
		}
	})
	return out
}

// MulVec returns the matrix-vector product m*x.
func MulVec(m *Dense, x []float64) []float64 {
	if m.Cols != len(x) {
		panic("mat: MulVec shape mismatch")
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// Gaussian fills a rows×cols matrix with standard normal samples drawn
// from rng.
func Gaussian(rng *rand.Rand, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// QR computes the thin QR decomposition of m (Rows >= Cols) using
// Householder reflections. It returns Q with orthonormal columns
// (Rows×Cols) and upper-triangular R (Cols×Cols) with m = Q*R.
func QR(m *Dense) (q, r *Dense) {
	rows, cols := m.Rows, m.Cols
	if rows < cols {
		panic("mat: QR requires Rows >= Cols")
	}
	a := m.Clone()
	vs := make([][]float64, 0, cols) // Householder vectors
	for k := 0; k < cols; k++ {
		// Build the Householder vector for column k below the diagonal.
		var norm float64
		for i := k; i < rows; i++ {
			norm += a.At(i, k) * a.At(i, k)
		}
		norm = math.Sqrt(norm)
		v := make([]float64, rows)
		if norm == 0 {
			// Column already zero; identity reflection.
			vs = append(vs, v)
			continue
		}
		alpha := -norm
		if a.At(k, k) < 0 {
			alpha = norm
		}
		for i := k; i < rows; i++ {
			v[i] = a.At(i, k)
		}
		v[k] -= alpha
		var vnorm float64
		for _, x := range v {
			vnorm += x * x
		}
		if vnorm > 0 {
			inv := 1 / math.Sqrt(vnorm)
			for i := range v {
				v[i] *= inv
			}
			// Apply H = I - 2*v*v^T to a's trailing columns.
			for j := k; j < cols; j++ {
				var dot float64
				for i := k; i < rows; i++ {
					dot += v[i] * a.At(i, j)
				}
				for i := k; i < rows; i++ {
					a.Set(i, j, a.At(i, j)-2*dot*v[i])
				}
			}
		}
		vs = append(vs, v)
	}
	r = NewDense(cols, cols)
	for i := 0; i < cols; i++ {
		for j := i; j < cols; j++ {
			r.Set(i, j, a.At(i, j))
		}
	}
	// Q = H_0 * H_1 * ... * H_{cols-1} applied to the thin identity.
	q = NewDense(rows, cols)
	for j := 0; j < cols; j++ {
		q.Set(j, j, 1)
	}
	for k := cols - 1; k >= 0; k-- {
		v := vs[k]
		for j := 0; j < cols; j++ {
			var dot float64
			for i := k; i < rows; i++ {
				dot += v[i] * q.At(i, j)
			}
			if dot == 0 {
				continue
			}
			for i := k; i < rows; i++ {
				q.Set(i, j, q.At(i, j)-2*dot*v[i])
			}
		}
	}
	return q, r
}

// JacobiEigen computes the eigendecomposition of the symmetric matrix s
// using the cyclic Jacobi method. It returns the eigenvalues in
// descending order together with the matching eigenvectors as the columns
// of v (so s ≈ v * diag(values) * v^T).
func JacobiEigen(s *Dense) (values []float64, v *Dense) {
	n := s.Rows
	if s.Cols != n {
		panic("mat: JacobiEigen requires a square matrix")
	}
	a := s.Clone()
	v = NewDense(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += a.At(i, j) * a.At(i, j)
			}
		}
		if off < 1e-22 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := a.At(p, p), a.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				sn := t * c
				// Rotate rows/cols p and q of a.
				for i := 0; i < n; i++ {
					aip, aiq := a.At(i, p), a.At(i, q)
					a.Set(i, p, c*aip-sn*aiq)
					a.Set(i, q, sn*aip+c*aiq)
				}
				for i := 0; i < n; i++ {
					api, aqi := a.At(p, i), a.At(q, i)
					a.Set(p, i, c*api-sn*aqi)
					a.Set(q, i, sn*api+c*aqi)
				}
				for i := 0; i < n; i++ {
					vip, viq := v.At(i, p), v.At(i, q)
					v.Set(i, p, c*vip-sn*viq)
					v.Set(i, q, sn*vip+c*viq)
				}
			}
		}
	}
	values = make([]float64, n)
	for i := 0; i < n; i++ {
		values[i] = a.At(i, i)
	}
	// Sort eigenpairs by descending eigenvalue (selection sort keeps the
	// column swaps simple).
	for i := 0; i < n; i++ {
		maxI := i
		for j := i + 1; j < n; j++ {
			if values[j] > values[maxI] {
				maxI = j
			}
		}
		if maxI != i {
			values[i], values[maxI] = values[maxI], values[i]
			for r := 0; r < n; r++ {
				vi, vm := v.At(r, i), v.At(r, maxI)
				v.Set(r, i, vm)
				v.Set(r, maxI, vi)
			}
		}
	}
	return values, v
}

// SVDResult holds a thin singular value decomposition a ≈ U * diag(S) * V^T.
type SVDResult struct {
	U *Dense    // Rows×k, orthonormal columns
	S []float64 // k singular values, descending
	V *Dense    // Cols×k, orthonormal columns
}

// RandomizedSVD computes an approximate rank-k thin SVD of a following
// Halko et al. (2011): sketch the range of a with a Gaussian test matrix,
// run nIter power iterations with QR re-orthonormalization, then solve the
// small projected problem exactly. oversample extra sketch columns (e.g. 7)
// improve accuracy; rng drives the Gaussian draw deterministically. The
// products run on up to workers goroutines (0 = GOMAXPROCS) and do not
// depend on the number.
func RandomizedSVD(a *Dense, k, oversample, nIter int, rng *rand.Rand, workers int) SVDResult {
	if k <= 0 {
		panic("mat: RandomizedSVD requires k >= 1")
	}
	l := k + oversample
	if l > a.Cols {
		l = a.Cols
	}
	if l > a.Rows {
		l = a.Rows
	}
	if k > l {
		k = l
	}
	// Range finder: Y = A * Omega, orthonormalized.
	omega := Gaussian(rng, a.Cols, l)
	y := Mul(a, omega, workers)
	q, _ := QR(y)
	for it := 0; it < nIter; it++ {
		z := MulTA(a, q, workers)
		qz, _ := QR(z)
		y = Mul(a, qz, workers)
		q, _ = QR(y)
	}
	// B = Q^T A is l×Cols; take the eigendecomposition of B*B^T (l×l).
	b := MulTA(q, a, workers)
	bbt := Mul(b, b.T(), workers)
	vals, w := JacobiEigen(bbt)
	s := make([]float64, k)
	for i := 0; i < k; i++ {
		if vals[i] > 0 {
			s[i] = math.Sqrt(vals[i])
		}
	}
	// U = Q * W[:, :k]
	wk := NewDense(l, k)
	for i := 0; i < l; i++ {
		for j := 0; j < k; j++ {
			wk.Set(i, j, w.At(i, j))
		}
	}
	u := Mul(q, wk, workers)
	// V = B^T * W * diag(1/s)
	v := MulTA(b, wk, workers)
	for j := 0; j < k; j++ {
		if s[j] == 0 {
			continue
		}
		inv := 1 / s[j]
		for i := 0; i < v.Rows; i++ {
			v.Set(i, j, v.At(i, j)*inv)
		}
	}
	return SVDResult{U: u, S: s, V: v}
}

// FrobeniusDiff returns the Frobenius norm of a-b.
func FrobeniusDiff(a, b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("mat: FrobeniusDiff shape mismatch")
	}
	var s float64
	for i, v := range a.Data {
		d := v - b.Data[i]
		s += d * d
	}
	return math.Sqrt(s)
}
