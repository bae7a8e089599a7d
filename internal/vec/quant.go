// SQ8 scalar quantization, what is left of it: each dimension is
// affinely mapped to one byte (code = round((v-lo)/step),
// step = (hi-lo)/255) and a lookup-table kernel scores a float32 query
// against the codes. No search path uses it any more; the names below
// survive because bench/ times them (kernelProbe) and is edited only by
// benchmark changes.
package vec

import (
	"fmt"
	"math"
)

// SQ8Codebook is a per-dimension affine codebook: code c in dimension i
// dequantizes to Lo[i] + Step[i]*c. Construct with TrainSQ8.
// Kept for bench/ until the benchmark-only change drops the vec.sq8_* rows.
type SQ8Codebook struct {
	// Lo is the per-dimension minimum seen at training time.
	Lo []float32
	// Step is the per-dimension quantization step (hi−lo)/255; a
	// constant dimension has step 0 and always encodes to code 0.
	Step []float32
}

// TrainSQ8 trains a codebook over a contiguous row-major arena holding
// len(arena)/dim rows: per-dimension min/max folded into lo and
// step = (hi−lo)/255. It panics on an empty or misaligned arena.
// Kept for bench/ until the benchmark-only change drops the vec.sq8_* rows.
func TrainSQ8(arena []float32, dim int) SQ8Codebook {
	lo, hi := MinMaxStrided(arena, dim)
	step := make([]float32, dim)
	for i := range step {
		step[i] = float32((float64(hi[i]) - float64(lo[i])) / 255)
	}
	return SQ8Codebook{Lo: lo, Step: step}
}

// EncodeInto quantizes v into codes (len dim each). Out-of-range values
// clamp to [0,255].
// Kept for bench/ until the benchmark-only change drops the vec.sq8_* rows.
func (cb *SQ8Codebook) EncodeInto(codes []uint8, v []float32) {
	if len(codes) != len(v) || len(v) != len(cb.Lo) {
		panic(fmt.Sprintf("vec: EncodeInto dim mismatch codes=%d v=%d codebook=%d",
			len(codes), len(v), len(cb.Lo)))
	}
	for i, x := range v {
		lo, step := float64(cb.Lo[i]), float64(cb.Step[i])
		var c float64
		if step > 0 {
			c = math.Round((float64(x) - lo) / step)
			if c < 0 {
				c = 0
			} else if c > 255 {
				c = 255
			}
		}
		codes[i] = uint8(c)
	}
}

// AdjustQueryInto writes the codebook-relative query dst = q − Lo, the
// per-query precomputation that lets the asymmetric kernels compare
// against codes without reconstructing rows: q − deq = (q−lo) − step·c.
// Kept for bench/ until the benchmark-only change drops the vec.sq8_* rows.
func (cb *SQ8Codebook) AdjustQueryInto(dst, q []float32) {
	if len(dst) != len(q) || len(q) != len(cb.Lo) {
		panic(fmt.Sprintf("vec: AdjustQueryInto dim mismatch dst=%d q=%d codebook=%d",
			len(dst), len(q), len(cb.Lo)))
	}
	for i, x := range q {
		dst[i] = x - cb.Lo[i]
	}
}

// SQ8LUT is the per-query lookup-table form of the asymmetric kernel:
// one [256]float32 table per dimension with
//
//	lut[d][c] = (qa[d] − Step[d]·c)²
//
// Scoring a code row through the tables costs one byte load, one table
// load and one add per dimension; building the tables costs 256·dim
// multiplies once per query. Entries and reduction are float32, so a
// LUT score agrees with the float64-reduced sum only to a relative
// ~dim·2⁻²⁴ (one float32 accumulation chain per row).
// Kept for bench/ until the benchmark-only change drops the vec.sq8_* rows.
type SQ8LUT [][256]float32

// BuildSQ8LUTInto fills lut (grown if needed) with the query's
// per-dimension tables from the adjusted query qa = q − Lo, returning
// the slice for reuse across queries.
// Kept for bench/ until the benchmark-only change drops the vec.sq8_* rows.
func (cb *SQ8Codebook) BuildSQ8LUTInto(lut SQ8LUT, qa []float32) SQ8LUT {
	if len(qa) != len(cb.Step) {
		panic(fmt.Sprintf("vec: BuildSQ8LUTInto dim mismatch qa=%d codebook=%d", len(qa), len(cb.Step)))
	}
	if cap(lut) < len(qa) {
		lut = make(SQ8LUT, len(qa))
	}
	lut = lut[:len(qa)]
	for d := range lut {
		a, step := qa[d], cb.Step[d]
		t := &lut[d]
		for c := 0; c < 256; c++ {
			diff := a - step*float32(c)
			t[c] = diff * diff
		}
	}
	return lut
}

// SqDistSQ8LUTBlockInto scores every row of a contiguous quantized code
// block through the query's lookup tables: out[r] ≈ ‖qa − Step·row_r‖²,
// within the LUT precision contract (see SQ8LUT). Rows are processed
// four at a time so the four independent accumulator chains hide the
// table-load latency. It panics if the block is not a whole number of
// rows or out has the wrong length.
// Kept for bench/ until the benchmark-only change drops the vec.sq8_* rows.
func SqDistSQ8LUTBlockInto(out []float64, lut SQ8LUT, codes []uint8) {
	dim := len(lut)
	n := blockRows(len(codes), dim, len(out))
	r := 0
	for ; r+4 <= n; r += 4 {
		rowA := codes[r*dim : (r+1)*dim]
		rowB := codes[(r+1)*dim : (r+2)*dim]
		rowC := codes[(r+2)*dim : (r+3)*dim]
		rowD := codes[(r+3)*dim : (r+4)*dim]
		var sa, sb, sc, sd float32
		for i := 0; i < dim; i++ {
			t := &lut[i]
			sa += t[rowA[i]]
			sb += t[rowB[i]]
			sc += t[rowC[i]]
			sd += t[rowD[i]]
		}
		out[r] = float64(sa)
		out[r+1] = float64(sb)
		out[r+2] = float64(sc)
		out[r+3] = float64(sd)
	}
	for ; r < n; r++ {
		row := codes[r*dim : (r+1)*dim]
		var s float32
		for i := 0; i < dim; i++ {
			s += lut[i][row[i]]
		}
		out[r] = float64(s)
	}
}

// SqDistBlockInto computes out[r] = SqDist(q, row_r) for every row of a
// contiguous row-major float32 block. It panics if the block is not a
// whole number of rows or out has the wrong length.
// Kept for bench/ (the float32 baseline of the vec.sq8_* rows), like the above.
func SqDistBlockInto(out []float64, q, rows []float32) {
	n := blockRows(len(rows), len(q), len(out))
	for r := 0; r < n; r++ {
		out[r] = SqDist(q, rows[r*len(q):(r+1)*len(q)])
	}
}

// blockRows validates a row-major block against the query length and
// the output buffer, returning the row count.
func blockRows(blockLen, dim, outLen int) int {
	if dim == 0 || blockLen%dim != 0 {
		panic(fmt.Sprintf("vec: block length %d not a multiple of dim %d", blockLen, dim))
	}
	n := blockLen / dim
	if outLen != n {
		panic(fmt.Sprintf("vec: block output length %d for %d rows", outLen, n))
	}
	return n
}
