package vec

import (
	"encoding/binary"
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
	if cb.Diameter() <= 0 {
		t.Fatalf("Diameter = %v, want > 0 for a spread arena", cb.Diameter())
	}
}

// TestSQ8RoundTrip pins the quantize→dequantize error bound: each
// in-range dimension reconstructs within half a step (plus float32
// rounding), and the stored residual is an upper bound on the actual
// reconstruction distance.
func TestSQ8RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 3))
	dim := 33
	arena := randArena(rng, 64, dim, -1, 10)
	cb := TrainSQ8(arena, dim)
	codes := make([]uint8, dim)
	deq := make([]float32, dim)
	for r := 0; r < 64; r++ {
		row := arena[r*dim : (r+1)*dim]
		resid := cb.EncodeInto(codes, row)
		cb.DequantizeInto(deq, codes)
		var sq float64
		for i := range row {
			e := math.Abs(float64(row[i]) - float64(deq[i]))
			half := float64(cb.Step[i])/2 + 1e-6*math.Abs(float64(row[i]))
			if e > half+1e-12 {
				t.Fatalf("row %d dim %d: |v-deq| = %v exceeds step/2 = %v", r, i, e, half)
			}
			// Residual admissibility is against the float64 reconstruction
			// EncodeInto bounds (deq above is its float32 rounding).
			d := float64(row[i]) - (float64(cb.Lo[i]) + float64(cb.Step[i])*float64(codes[i]))
			sq += d * d
		}
		if actual := math.Sqrt(sq); float64(resid) < actual-1e-9*(1+actual) {
			t.Fatalf("row %d: stored residual %v below actual %v", r, resid, actual)
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
	resid := cb.EncodeInto(codes, []float32{5, 2, 5, 3})
	if codes[0] != 0 || codes[2] != 0 {
		t.Fatalf("constant dims should encode to 0, got %v", codes)
	}
	deq := make([]float32, dim)
	cb.DequantizeInto(deq, codes)
	if deq[0] != 5 || deq[2] != 5 {
		t.Fatalf("constant dims should reconstruct exactly, got %v", deq)
	}
	_ = resid
}

// checkBounds asserts the admissibility pair for one query/row: with sq
// the asymmetric kernel result and resid the stored residual,
// QLowerBound ≤ ‖q−v‖ ≤ QUpperBound, and the inverted prune limit
// implies the lower-bound exclusion it promises.
func checkBounds(t *testing.T, cb *SQ8Codebook, q, v []float32, codes []uint8, resid float32) {
	t.Helper()
	qa := make([]float32, len(q))
	cb.AdjustQueryInto(qa, q)
	sq := SqDistSQ8(qa, cb.Step, codes)
	truth := Dist(q, v)
	lb, ub := cb.QLowerBound(sq, resid), cb.QUpperBound(sq, resid)
	if lb > truth {
		t.Fatalf("QLowerBound %v exceeds true distance %v (sq=%v resid=%v)", lb, truth, sq, resid)
	}
	if ub < truth {
		t.Fatalf("QUpperBound %v below true distance %v (sq=%v resid=%v)", ub, truth, sq, resid)
	}
	// Prune-limit inversion: sq > limit must imply lb > target, for
	// targets straddling the bound.
	for _, target := range []float64{truth * 0.5, truth * 0.99, truth, truth*1.01 + 1e-9, -1} {
		limit := cb.QPruneLimit(target, resid)
		if sq > limit && !(cb.QLowerBound(sq, resid) > target) {
			t.Fatalf("QPruneLimit unsound: sq=%v > limit=%v but lb=%v <= target=%v",
				sq, limit, cb.QLowerBound(sq, resid), target)
		}
	}
	// The hoisted form must keep the same promise for every split of a
	// target into a − b·x, including rows whose b·x exceeds a.
	for _, target := range []float64{truth * 0.5, truth * 0.99, truth, truth*1.01 + 1e-9, 0} {
		for _, bx := range [][2]float64{{0, 0}, {0.37, 1.9}, {3, truth}, {1e-3, 1e3}} {
			b, x := bx[0], bx[1]
			a := target + b*x
			limit := cb.PruneLine(a, b).Limit(x, resid)
			if got := a - b*x; sq > limit && !(cb.QLowerBound(sq, resid) > got) {
				t.Fatalf("PruneLine unsound: sq=%v > limit=%v but lb=%v <= target=%v (a=%v b=%v x=%v)",
					sq, limit, cb.QLowerBound(sq, resid), got, a, b, x)
			}
			if ref := cb.QPruneLimit(a-b*x, resid); limit < ref && ref > 0 {
				t.Fatalf("PruneLine limit %v below QPruneLimit %v (a=%v b=%v x=%v resid=%v)", limit, ref, a, b, x, resid)
			}
		}
	}
	// The float32-accumulated LUT score must stay inside the same bound
	// pair — that is the admissibility contract letting the bulk scans
	// use it.
	lut := cb.BuildSQ8LUTInto(nil, qa)
	var lutSq [1]float64
	SqDistSQ8LUTBlockInto(lutSq[:], lut, codes)
	if lb := cb.QLowerBound(lutSq[0], resid); lb > truth {
		t.Fatalf("LUT QLowerBound %v exceeds true distance %v (lutSq=%v sq=%v resid=%v)",
			lb, truth, lutSq[0], sq, resid)
	}
	if ub := cb.QUpperBound(lutSq[0], resid); ub < truth {
		t.Fatalf("LUT QUpperBound %v below true distance %v (lutSq=%v sq=%v resid=%v)",
			ub, truth, lutSq[0], sq, resid)
	}
}

// TestSQ8BoundAdmissible sweeps random codebooks, in-range rows,
// clamped out-of-range rows, and queries both near and far.
func TestSQ8BoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 5))
	for trial := 0; trial < 200; trial++ {
		dim := 1 + rng.IntN(150)
		center := 50 * (2*rng.Float64() - 1)
		spread := math.Pow(10, -2+4*rng.Float64())
		arena := randArena(rng, 8+rng.IntN(40), dim, center, spread)
		cb := TrainSQ8(arena, dim)
		codes := make([]uint8, dim)
		for probe := 0; probe < 8; probe++ {
			v := make([]float32, dim)
			switch probe % 3 {
			case 0: // in-range row from the arena
				copy(v, arena[rng.IntN(len(arena)/dim)*dim:][:dim])
			case 1: // out-of-range row: bounds must survive clamping
				for i := range v {
					v[i] = float32(center + 4*spread*(2*rng.Float64()-1))
				}
			default: // near-duplicate of an arena row
				copy(v, arena[rng.IntN(len(arena)/dim)*dim:][:dim])
				v[rng.IntN(dim)] += float32(spread * 1e-3)
			}
			resid := cb.EncodeInto(codes, v)
			q := make([]float32, dim)
			switch probe % 4 {
			case 0: // query ≈ row: the cancellation regime
				copy(q, v)
			case 1:
				copy(q, v)
				q[rng.IntN(dim)] += float32(spread * rng.Float64())
			default:
				for i := range q {
					q[i] = float32(center + 3*spread*(2*rng.Float64()-1))
				}
			}
			checkBounds(t, &cb, q, v, codes, resid)
		}
	}
}

// FuzzSQ8Bounds feeds arbitrary bytes as float32 vectors through
// checkBounds: the bound pair stays admissible and both prune-limit
// forms keep their inversion promise.
func FuzzSQ8Bounds(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64, 0, 0, 64, 64, 0, 0, 128, 64})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Need at least 3 float32s: one dim of training row, row, query.
		vals := make([]float32, 0, len(raw)/4)
		for i := 0; i+4 <= len(raw); i += 4 {
			v := math.Float32frombits(binary.LittleEndian.Uint32(raw[i : i+4]))
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) || math.Abs(float64(v)) > 1e6 {
				v = float32(math.Mod(float64(v), 1e3))
				if math.IsNaN(float64(v)) {
					v = 0
				}
			}
			vals = append(vals, v)
		}
		if len(vals) < 3 {
			t.Skip()
		}
		dim := len(vals) / 3
		train, row, q := vals[:dim], vals[dim:2*dim], vals[2*dim:3*dim]
		// Two-row training arena: the fuzzed row and the fuzzed train row.
		arena := append(append([]float32{}, train...), row...)
		cb := TrainSQ8(arena, dim)
		codes := make([]uint8, dim)
		resid := cb.EncodeInto(codes, row)
		checkBounds(t, &cb, q, row, codes, resid)
	})
}

// TestSQ8LUTAgreement pins the LUT precision contract: every LUT score
// matches SqDistSQ8 within the documented ~dim·2⁻²³ relative error,
// including the n%4 remainder rows of the 4-row unrolled kernel, and
// the batched form is identical to the blockwise form.
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
		batch := make([]float64, nq*rows)
		SqDistSQ8LUTBatchInto(batch, luts, codes, 1+rng.IntN(8))
		for qi := range luts {
			SqDistSQ8LUTBlockInto(block, luts[qi], codes)
			for r := 0; r < rows; r++ {
				if batch[qi*rows+r] != block[r] {
					t.Fatalf("batch[%d,%d]=%v != block %v", qi, r, batch[qi*rows+r], block[r])
				}
				exact := SqDistSQ8(qas[qi], cb.Step, codes[r*dim:(r+1)*dim])
				tol := float64(dim) * 1.2e-7 * (exact + 1e-30)
				if diff := math.Abs(block[r] - exact); diff > tol {
					t.Fatalf("LUT score %v vs SqDistSQ8 %v: |diff|=%v > tol=%v (dim=%d)",
						block[r], exact, diff, tol, dim)
				}
			}
		}
	}
}

// TestSqDistSQ8BoundSemantics pins the early-abandon contract: a result
// ≤ limit is bit-identical to the full kernel, a result > limit proves
// the full kernel exceeds limit.
func TestSqDistSQ8BoundSemantics(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 7))
	dim := 100
	arena := randArena(rng, 32, dim, 0, 3)
	cb := TrainSQ8(arena, dim)
	codes := make([]uint8, dim)
	q := make([]float32, dim)
	qa := make([]float32, dim)
	for trial := 0; trial < 100; trial++ {
		row := arena[rng.IntN(32)*dim:][:dim]
		cb.EncodeInto(codes, row)
		for i := range q {
			q[i] = float32(4 * (2*rng.Float64() - 1))
		}
		cb.AdjustQueryInto(qa, q)
		full := SqDistSQ8(qa, cb.Step, codes)
		for _, limit := range []float64{-1, 0, full / 2, full, full * 2, math.Inf(1)} {
			got := SqDistSQ8Bound(qa, cb.Step, codes, limit)
			if got <= limit && got != full {
				t.Fatalf("non-abandoned result %v differs from full kernel %v (limit %v)", got, full, limit)
			}
			if got > limit && full <= limit {
				t.Fatalf("abandoned at limit %v but full kernel is %v", limit, full)
			}
		}
	}
}

// TestBlockKernelsBitIdentical pins the block and batch kernels to the
// per-row kernels, bitwise, on both the float32 and SQ8 paths.
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
		nq := 5
		qs := randArena(rng, nq, dim, 1, 3)
		qas := make([]float32, nq*dim)
		for qi := 0; qi < nq; qi++ {
			cb.AdjustQueryInto(qas[qi*dim:(qi+1)*dim], qs[qi*dim:(qi+1)*dim])
		}

		// Float32 block vs per-row SqDist.
		out := make([]float64, n)
		SqDistBlockInto(out, qs[:dim], rows)
		for r := 0; r < n; r++ {
			if want := SqDist(qs[:dim], rows[r*dim:(r+1)*dim]); out[r] != want {
				t.Fatalf("dim %d row %d: SqDistBlockInto %v != SqDist %v", dim, r, out[r], want)
			}
		}
		// SQ8 block vs per-row SqDistSQ8.
		SqDistSQ8BlockInto(out, qas[:dim], cb.Step, codes)
		for r := 0; r < n; r++ {
			if want := SqDistSQ8(qas[:dim], cb.Step, codes[r*dim:(r+1)*dim]); out[r] != want {
				t.Fatalf("dim %d row %d: SqDistSQ8BlockInto %v != SqDistSQ8 %v", dim, r, out[r], want)
			}
		}
		// Batch kernels vs per-row, across tile sizes.
		for _, tile := range []int{0, 1, 8, n, n + 10} {
			outB := make([]float64, nq*n)
			SqDistSQ8BatchInto(outB, qas, nq, cb.Step, codes, tile)
			for qi := 0; qi < nq; qi++ {
				for r := 0; r < n; r++ {
					want := SqDistSQ8(qas[qi*dim:(qi+1)*dim], cb.Step, codes[r*dim:(r+1)*dim])
					if outB[qi*n+r] != want {
						t.Fatalf("dim %d tile %d q %d row %d: batch %v != per-row %v", dim, tile, qi, r, outB[qi*n+r], want)
					}
				}
			}
			SqDistBatchInto(outB, qs, nq, dim, rows, tile)
			for qi := 0; qi < nq; qi++ {
				for r := 0; r < n; r++ {
					want := SqDist(qs[qi*dim:(qi+1)*dim], rows[r*dim:(r+1)*dim])
					if outB[qi*n+r] != want {
						t.Fatalf("dim %d tile %d q %d row %d: float batch %v != SqDist %v", dim, tile, qi, r, outB[qi*n+r], want)
					}
				}
			}
		}
	}
}

func TestQuantKernelMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"SqDistSQ8":   func() { SqDistSQ8([]float32{1}, []float32{1, 2}, []uint8{0}) },
		"EncodeInto":  func() { cb := NewSQ8Codebook([]float32{0}, []float32{1}); cb.EncodeInto([]uint8{0, 0}, []float32{1}) },
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
