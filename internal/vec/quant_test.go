package vec

import (
	"math"
	"math/rand/v2"
	"testing"
)

// randArena builds an n×dim row-major arena with entries in
// [center-spread, center+spread].
func randArena(rng *rand.Rand, n, dim int, center, spread float64) []float32 {
	a := make([]float32, n*dim)
	for i := range a {
		a[i] = float32(center + spread*(2*rng.Float64()-1))
	}
	return a
}

func TestTrainSQ8CoversRange(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	dim := 7
	arena := randArena(rng, 50, dim, 2, 5)
	cb := TrainSQ8(arena, dim)
	lo, hi := MinMaxStrided(arena, dim)
	for i := 0; i < dim; i++ {
		if cb.Lo[i] != lo[i] {
			t.Fatalf("dim %d: Lo = %v, want %v", i, cb.Lo[i], lo[i])
		}
		top := float64(cb.Lo[i]) + 255*float64(cb.Step[i])
		if top < float64(hi[i])-1e-6*math.Abs(float64(hi[i])) {
			t.Fatalf("dim %d: code 255 dequantizes to %v, below max %v", i, top, hi[i])
		}
	}
}

// TestSQ8RoundTrip pins the quantize→dequantize error bound: each
// in-range dimension reconstructs within half a step (plus float32
// rounding).
func TestSQ8RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 3))
	dim := 33
	arena := randArena(rng, 64, dim, -1, 10)
	cb := TrainSQ8(arena, dim)
	codes := make([]uint8, dim)
	for r := 0; r < 64; r++ {
		row := arena[r*dim : (r+1)*dim]
		cb.EncodeInto(codes, row)
		for i := range row {
			deq := float32(float64(cb.Lo[i]) + float64(cb.Step[i])*float64(codes[i]))
			e := math.Abs(float64(row[i]) - float64(deq))
			half := float64(cb.Step[i])/2 + 1e-6*math.Abs(float64(row[i]))
			if e > half+1e-12 {
				t.Fatalf("row %d dim %d: |v-deq| = %v exceeds step/2 = %v", r, i, e, half)
			}
		}
	}
}

func TestSQ8ConstantDimension(t *testing.T) {
	dim := 4
	arena := []float32{5, 1, 5, 2, 5, 3, 5, 4, 5, 0, 5, 9}[: 3*dim : 3*dim]
	cb := TrainSQ8(arena, dim)
	if cb.Step[0] != 0 || cb.Step[2] != 0 {
		t.Fatalf("constant dims should have step 0, got %v", cb.Step)
	}
	codes := make([]uint8, dim)
	cb.EncodeInto(codes, []float32{5, 2, 5, 3})
	if codes[0] != 0 || codes[2] != 0 {
		t.Fatalf("constant dims should encode to 0, got %v", codes)
	}
	if cb.Lo[0] != 5 || cb.Lo[2] != 5 {
		t.Fatalf("constant dims should reconstruct exactly, got Lo %v", cb.Lo)
	}
}

// sqDistSQ8Ref is the float64-reduced ‖qa − step·codes‖² the LUT scores
// approximate (element math in float32, like the tables).
func sqDistSQ8Ref(qa, step []float32, codes []uint8) float64 {
	var s float64
	for i := range qa {
		d := qa[i] - step[i]*float32(codes[i])
		s += float64(d) * float64(d)
	}
	return s
}

// TestSQ8LUTAgreement pins the LUT precision contract: every LUT score
// matches the float64-reduced sum within the documented ~dim·2⁻²³
// relative error, including the n%4 remainder rows of the 4-row
// unrolled kernel.
func TestSQ8LUTAgreement(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for trial := 0; trial < 40; trial++ {
		dim := 1 + rng.IntN(160)
		rows := 1 + rng.IntN(23) // exercises every n%4 remainder
		arena := randArena(rng, rows+4, dim, 10*(2*rng.Float64()-1), math.Pow(10, -1+2*rng.Float64()))
		cb := TrainSQ8(arena, dim)
		codes := make([]uint8, rows*dim)
		for r := 0; r < rows; r++ {
			cb.EncodeInto(codes[r*dim:(r+1)*dim], arena[r*dim:(r+1)*dim])
		}
		nq := 1 + rng.IntN(3)
		luts := make([]SQ8LUT, nq)
		qas := make([][]float32, nq)
		for qi := range luts {
			q := arena[(rows+rng.IntN(4))*dim:][:dim]
			qas[qi] = make([]float32, dim)
			cb.AdjustQueryInto(qas[qi], q)
			luts[qi] = cb.BuildSQ8LUTInto(luts[qi], qas[qi])
		}
		block := make([]float64, rows)
		for qi := range luts {
			SqDistSQ8LUTBlockInto(block, luts[qi], codes)
			for r := 0; r < rows; r++ {
				exact := sqDistSQ8Ref(qas[qi], cb.Step, codes[r*dim:(r+1)*dim])
				tol := float64(dim) * 1.2e-7 * (exact + 1e-30)
				if diff := math.Abs(block[r] - exact); diff > tol {
					t.Fatalf("LUT score %v vs float64 sum %v: |diff|=%v > tol=%v (dim=%d)",
						block[r], exact, diff, tol, dim)
				}
			}
		}
	}
}

// TestBlockKernelsBitIdentical pins the block kernels to their per-row
// forms, bitwise: the float32 block to SqDist, and the 4-row unrolled
// LUT block to the same kernel fed one row at a time.
func TestBlockKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 9))
	for _, dim := range []int{1, 3, 4, 7, 100} {
		n := 37
		rows := randArena(rng, n, dim, 1, 2)
		cb := TrainSQ8(rows, dim)
		codes := make([]uint8, n*dim)
		for r := 0; r < n; r++ {
			cb.EncodeInto(codes[r*dim:(r+1)*dim], rows[r*dim:(r+1)*dim])
		}
		q := randArena(rng, 1, dim, 1, 3)
		qa := make([]float32, dim)
		cb.AdjustQueryInto(qa, q)
		lut := cb.BuildSQ8LUTInto(nil, qa)

		out := make([]float64, n)
		SqDistBlockInto(out, q, rows)
		for r := 0; r < n; r++ {
			if want := SqDist(q, rows[r*dim:(r+1)*dim]); out[r] != want {
				t.Fatalf("dim %d row %d: SqDistBlockInto %v != SqDist %v", dim, r, out[r], want)
			}
		}
		SqDistSQ8LUTBlockInto(out, lut, codes)
		var one [1]float64
		for r := 0; r < n; r++ {
			SqDistSQ8LUTBlockInto(one[:], lut, codes[r*dim:(r+1)*dim])
			if out[r] != one[0] {
				t.Fatalf("dim %d row %d: LUT block %v != LUT single row %v", dim, r, out[r], one[0])
			}
		}
	}
}

func TestQuantKernelMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"EncodeInto":  func() { cb := TrainSQ8([]float32{0, 255}, 1); cb.EncodeInto([]uint8{0, 0}, []float32{1}) },
		"Block":       func() { SqDistBlockInto(make([]float64, 2), []float32{1, 2}, []float32{1, 2, 3}) },
		"BlockOutLen": func() { SqDistBlockInto(make([]float64, 3), []float32{1, 2}, []float32{1, 2, 3, 4}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
