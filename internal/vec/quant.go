// SQ8 scalar quantization: the two-resolution pattern of CSSIA pushed
// down into the distance kernels. Each dimension is affinely mapped to
// one byte (code = round((v-lo)/step), step = (hi-lo)/255), so a
// candidate row costs 1 byte/dim instead of 4, and the asymmetric
// kernels below compare a float32 query against the int8 codes without
// materializing the dequantized row.
//
// The kernels only approximate the true float32 distance, so every
// consumer that must stay exact works through the provable bound pair
// (QLowerBound, QUpperBound): with D the kernel's estimate of
// ‖q − deq(v)‖ and r ≥ ‖v − deq(v)‖ the stored per-row residual, the
// triangle inequality gives
//
//	‖q − v‖ ≥ ‖q − deq(v)‖ − ‖v − deq(v)‖ ≥ D·(1−rel) − a − r,
//	‖q − v‖ ≤ ‖q − deq(v)‖ + ‖v − deq(v)‖ ≤ D·(1+rel) + a + r,
//
// where rel and a (absolute, scaled by the codebook diameter) absorb
// the float32 rounding of the asymmetric kernel. The residual is
// computed exactly at encode time and rounded UP to float32, so the
// bounds stay admissible even for clamped out-of-range rows inserted
// after training. Fuzz tests (quant_test.go) hammer the admissibility
// of both bounds and of the inverted prune limit.
package vec

import (
	"fmt"
	"math"
)

// SQ8Codebook is the per-dimension affine codebook of one SQ8-quantized
// arena: code c in dimension i dequantizes to Lo[i] + Step[i]*c.
// Construct with TrainSQ8 or NewSQ8Codebook (both cache the diameter
// used by the bound slack); the zero value is not usable.
type SQ8Codebook struct {
	// Lo is the per-dimension minimum seen at training time.
	Lo []float32
	// Step is the per-dimension quantization step (hi−lo)/255; a
	// constant dimension has step 0 and always encodes to code 0.
	Step []float32
	// diam caches ‖255·Step‖, the diameter of the representable box —
	// the data-range scale of the absolute bound slack.
	diam float64
}

// NewSQ8Codebook builds a codebook from per-dimension minima and steps,
// caching the derived diameter. It panics if the lengths differ.
func NewSQ8Codebook(lo, step []float32) SQ8Codebook {
	checkLen(lo, step)
	cb := SQ8Codebook{Lo: lo, Step: step}
	var s float64
	for _, st := range step {
		d := 255 * float64(st)
		s += d * d
	}
	cb.diam = math.Sqrt(s)
	return cb
}

// TrainSQ8 trains a codebook over a contiguous row-major arena holding
// len(arena)/dim rows: per-dimension min/max folded into lo and
// step = (hi−lo)/255. It panics on an empty or misaligned arena.
func TrainSQ8(arena []float32, dim int) SQ8Codebook {
	lo, hi := MinMaxStrided(arena, dim)
	step := make([]float32, dim)
	for i := range step {
		step[i] = float32((float64(hi[i]) - float64(lo[i])) / 255)
	}
	return NewSQ8Codebook(lo, step)
}

// Dim returns the codebook's dimensionality.
func (cb *SQ8Codebook) Dim() int { return len(cb.Lo) }

// Diameter returns ‖255·Step‖ — the Euclidean diameter of the box of
// representable dequantized vectors, used to scale the absolute slack.
func (cb *SQ8Codebook) Diameter() float64 { return cb.diam }

// EncodeInto quantizes v into codes (len dim each) and returns an
// admissible residual: a float32 upper bound on ‖v − deq(codes)‖,
// computed exactly in float64 and rounded up. Out-of-range values clamp
// to [0,255]; the clamping error is captured by the residual, so the
// bound pair stays valid for rows outside the trained range.
func (cb *SQ8Codebook) EncodeInto(codes []uint8, v []float32) float32 {
	if len(codes) != len(v) || len(v) != len(cb.Lo) {
		panic(fmt.Sprintf("vec: EncodeInto dim mismatch codes=%d v=%d codebook=%d",
			len(codes), len(v), len(cb.Lo)))
	}
	var sq float64
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
		d := float64(x) - (lo + step*c)
		sq += d * d
	}
	return residUp(math.Sqrt(sq))
}

// DequantizeInto reconstructs the quantized row into dst.
func (cb *SQ8Codebook) DequantizeInto(dst []float32, codes []uint8) {
	if len(dst) != len(codes) || len(dst) != len(cb.Lo) {
		panic(fmt.Sprintf("vec: DequantizeInto dim mismatch dst=%d codes=%d codebook=%d",
			len(dst), len(codes), len(cb.Lo)))
	}
	for i, c := range codes {
		dst[i] = float32(float64(cb.Lo[i]) + float64(cb.Step[i])*float64(c))
	}
}

// AdjustQueryInto writes the codebook-relative query dst = q − Lo, the
// per-query precomputation that lets the asymmetric kernels compare
// against codes without reconstructing rows: q − deq = (q−lo) − step·c.
func (cb *SQ8Codebook) AdjustQueryInto(dst, q []float32) {
	if len(dst) != len(q) || len(q) != len(cb.Lo) {
		panic(fmt.Sprintf("vec: AdjustQueryInto dim mismatch dst=%d q=%d codebook=%d",
			len(dst), len(q), len(cb.Lo)))
	}
	for i, x := range q {
		dst[i] = x - cb.Lo[i]
	}
}

// residUp rounds a non-negative float64 up to the nearest float32 not
// below it, keeping stored residuals admissible.
func residUp(r float64) float32 {
	f := float32(r)
	if float64(f) < r {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// Slack constants absorbing the float32 rounding of the asymmetric
// kernel (element math in float32, reduction in float64) relative to
// the real-arithmetic ‖q − deq(v)‖ the triangle-inequality argument is
// stated in. The relative term covers error proportional to the
// distance itself; the absolute term, scaled by the codebook diameter,
// covers the cancellation regime where the distance is tiny but the
// operands are data-range sized; the constant floor term covers
// float32 underflow — a LUT entry diff² below the smallest subnormal
// flushes to zero, an absolute error in sq that neither proportional
// term sees when the data itself lives at subnormal scale (the floor is
// ~16 orders above the worst such loss, √(dim·2⁻¹⁴⁹), and ~18 below any
// distance float32 data at normal scale can produce). All three sit
// orders of magnitude above the rounding they absorb and orders of
// magnitude below distance gaps that matter; the fuzz tests in
// quant_test.go verify admissibility empirically.
const (
	sq8RelSlack   = 1e-4
	sq8AbsSlack   = 1e-5
	sq8FloorSlack = 1e-18
)

// QLowerBound converts an asymmetric kernel result sq (the estimate of
// ‖q − deq(v)‖²) and the row's stored residual into a certain lower
// bound on the true distance ‖q − v‖, clamped at 0:
//
//	QLowerBound(sq, r) ≤ ‖q − v‖ ≤ QUpperBound(sq, r).
func (cb *SQ8Codebook) QLowerBound(sq float64, resid float32) float64 {
	lb := math.Sqrt(sq)*(1-sq8RelSlack) - float64(resid) - sq8AbsSlack*cb.diam - sq8FloorSlack
	if lb < 0 {
		return 0
	}
	return lb
}

// QUpperBound is the matching certain upper bound on ‖q − v‖.
func (cb *SQ8Codebook) QUpperBound(sq float64, resid float32) float64 {
	return math.Sqrt(sq)*(1+sq8RelSlack) + float64(resid) + sq8AbsSlack*cb.diam + sq8FloorSlack
}

// QPruneLimit inverts QLowerBound for the early-abandoning kernel: it
// returns the largest limit L such that
//
//	sq > L  ⇒  QLowerBound(sq, resid) > target,
//
// so a scan can discard a row the moment the partial kernel sum exceeds
// L, without a sqrt per candidate. A negative return means every row
// prunes (the target is unreachable even at distance 0); pass it to
// SqDistSQ8Bound unchanged — any partial sum exceeds it immediately.
func (cb *SQ8Codebook) QPruneLimit(target float64, resid float32) float64 {
	t := target + float64(resid) + sq8AbsSlack*cb.diam + sq8FloorSlack
	if t <= 0 {
		return -1
	}
	t /= 1 - sq8RelSlack
	return t * t
}

// sq8PruneScale is 1/(1−sq8RelSlack)² inflated by 1e-12, so that it is
// at least the real-arithmetic value after rounding and after the two
// roundings of t·t·scale: SQ8PruneLine.Limit can only err toward a
// larger limit, i.e. toward pruning less.
const sq8PruneScale = (1 + 1e-12) / ((1 - sq8RelSlack) * (1 - sq8RelSlack))

// sq8LineSlack inflates the constant term of an SQ8PruneLine. The
// caller folds a quotient such as (u − λ·ds)/(1−λ) into a − b·ds, and
// the two forms round differently by a few ulps of a; when the row's
// true distance ties the target and the absolute slack is degenerate
// (a constant arena has diameter 0) that difference alone could turn
// t non-positive. 1e-12 relative is four orders above the rounding and
// eight below sq8RelSlack.
const sq8LineSlack = 1e-12

// SQ8PruneLine is QPruneLimit for a run of rows whose targets are
// affine in one per-row value x, target(x) = a − b·x: the divisions
// and the slack terms are paid once per run, a row costs one
// multiply-subtract, one add and two multiplies. Build with PruneLine.
type SQ8PruneLine struct {
	a, b float64
}

// PruneLine returns the prune line for targets a − b·x (a ≥ 0).
func (cb *SQ8Codebook) PruneLine(a, b float64) SQ8PruneLine {
	return SQ8PruneLine{a: a + a*sq8LineSlack + sq8AbsSlack*cb.diam + sq8FloorSlack, b: b}
}

// Limit returns a limit L with the QPruneLimit contract for the row's
// target a − b·x:
//
//	sq > L  ⇒  QLowerBound(sq, resid) > a − b·x,
//
// negative when every row prunes.
func (l SQ8PruneLine) Limit(x float64, resid float32) float64 {
	t := l.a - l.b*x + float64(resid)
	if t <= 0 {
		return -1
	}
	return t * t * sq8PruneScale
}

// SqDistSQ8 is the asymmetric kernel: the squared distance between the
// adjusted query qa = q − lo and the quantized row, ‖qa − step·c‖².
// Element math is float32 (one byte load, one convert, one multiply,
// one subtract per element — no row reconstruction); the reduction
// accumulates in float64 with the package's fixed 4-lane order, so the
// result is deterministic and bit-identical to a non-abandoned
// SqDistSQ8Bound. It panics if the lengths disagree.
func SqDistSQ8(qa, step []float32, codes []uint8) float64 {
	checkQuantLen(qa, step, codes)
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(qa); i += 4 {
		d0 := qa[i] - step[i]*float32(codes[i])
		d1 := qa[i+1] - step[i+1]*float32(codes[i+1])
		d2 := qa[i+2] - step[i+2]*float32(codes[i+2])
		d3 := qa[i+3] - step[i+3]*float32(codes[i+3])
		s0 += float64(d0) * float64(d0)
		s1 += float64(d1) * float64(d1)
		s2 += float64(d2) * float64(d2)
		s3 += float64(d3) * float64(d3)
	}
	for ; i < len(qa); i++ {
		d := qa[i] - step[i]*float32(codes[i])
		s0 += float64(d) * float64(d)
	}
	return (s0 + s1) + (s2 + s3)
}

// SqDistSQ8Bound is SqDistSQ8 with early abandonment: once the partial
// sum exceeds limit the kernel stops and returns the partial sum. The
// partial sums are monotone, so a result > limit proves
// SqDistSQ8 > limit; a result ≤ limit is the exact kernel value,
// bit-identical to SqDistSQ8. Pair limit with QPruneLimit to abandon
// against a distance threshold.
func SqDistSQ8Bound(qa, step []float32, codes []uint8, limit float64) float64 {
	checkQuantLen(qa, step, codes)
	var s0, s1, s2, s3 float64
	i := 0
	for i+4*sqDistBoundBlock <= len(qa) {
		for blk := 0; blk < sqDistBoundBlock; blk++ {
			d0 := qa[i] - step[i]*float32(codes[i])
			d1 := qa[i+1] - step[i+1]*float32(codes[i+1])
			d2 := qa[i+2] - step[i+2]*float32(codes[i+2])
			d3 := qa[i+3] - step[i+3]*float32(codes[i+3])
			s0 += float64(d0) * float64(d0)
			s1 += float64(d1) * float64(d1)
			s2 += float64(d2) * float64(d2)
			s3 += float64(d3) * float64(d3)
			i += 4
		}
		if (s0+s1)+(s2+s3) > limit {
			return (s0 + s1) + (s2 + s3)
		}
	}
	for ; i+4 <= len(qa); i += 4 {
		d0 := qa[i] - step[i]*float32(codes[i])
		d1 := qa[i+1] - step[i+1]*float32(codes[i+1])
		d2 := qa[i+2] - step[i+2]*float32(codes[i+2])
		d3 := qa[i+3] - step[i+3]*float32(codes[i+3])
		s0 += float64(d0) * float64(d0)
		s1 += float64(d1) * float64(d1)
		s2 += float64(d2) * float64(d2)
		s3 += float64(d3) * float64(d3)
	}
	for ; i < len(qa); i++ {
		d := qa[i] - step[i]*float32(codes[i])
		s0 += float64(d) * float64(d)
	}
	return (s0 + s1) + (s2 + s3)
}

// SQ8LUT is the per-query lookup-table form of the asymmetric kernel:
// one [256]float32 table per dimension with
//
//	lut[d][c] = (qa[d] − Step[d]·c)²
//
// — the square of exactly the per-lane difference SqDistSQ8 computes.
// Scoring a code row through the tables costs one byte load, one table
// load and one add per dimension, replacing the convert/multiply/
// subtract chain of the direct kernel; building the tables costs
// 256·dim multiplies once per query, amortized over every row the
// query scans. Unlike SqDistSQ8 the table entries and the reduction are
// float32, so a LUT score agrees with SqDistSQ8 only to a relative
// ~dim·2⁻²⁴ (single float32 accumulation chain per row) plus the
// underflow quantum the sq8FloorSlack term covers — inside the
// sq8RelSlack budget for dim ≲ 10³, which keeps
// QLowerBound/QUpperBound/QPruneLimit admissible over LUT scores
// (fuzz-verified). Use the direct kernels where
// bit-identical scores matter; use the LUT for bulk scoring where only
// the bounds' admissibility does.
type SQ8LUT [][256]float32

// BuildSQ8LUTInto fills lut (grown if needed) with the query's
// per-dimension tables from the adjusted query qa = q − Lo, returning
// the slice for reuse across queries.
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
// block through the query's lookup tables: out[r] ≈ SqDistSQ8 of row r,
// within the LUT precision contract (see SQ8LUT). Rows are processed
// four at a time so the four independent accumulator chains hide the
// table-load latency — this is the throughput kernel of the quantized
// scans. It panics if the block is not a whole number of rows or out
// has the wrong length.
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

// SqDistSQ8LUTBatchInto is the query-major batched form of the LUT
// kernel: one prebuilt table set per query, tiled so blockRows code
// rows stay cache-resident while every query consumes them. Queries
// are additionally processed in groups small enough that the group's
// tables (dim KiB each) stay L2-resident across code tiles — without
// the grouping, a wide batch cycles every table through the cache once
// per tile. out[qi*rows + r] receives query qi's LUT score for row r,
// identical to SqDistSQ8LUTBlockInto. blockRows <= 0 selects a tile
// sized for a 32 KiB L1.
func SqDistSQ8LUTBatchInto(out []float64, luts []SQ8LUT, codes []uint8, blockRows int) {
	if len(luts) == 0 {
		panic("vec: SqDistSQ8LUTBatchInto with no queries")
	}
	dim := len(luts[0])
	for _, l := range luts {
		if len(l) != dim {
			panic(fmt.Sprintf("vec: SqDistSQ8LUTBatchInto mixed dims %d vs %d", len(l), dim))
		}
	}
	rows := len(codes) / dim
	if dim == 0 || len(codes)%dim != 0 || len(out) != len(luts)*rows {
		panic(fmt.Sprintf("vec: SqDistSQ8LUTBatchInto block %d / out %d mismatch for dim %d, nq %d",
			len(codes), len(out), dim, len(luts)))
	}
	if blockRows <= 0 {
		blockRows = defaultTileRows(dim, 1)
	}
	// Each SQ8LUT is dim KiB (256 float32 entries per dimension), and a
	// group's tables are re-read for every code tile, so cap the group at
	// ~512 KiB of tables to keep them L2-resident.
	qTile := (512 << 10) / (dim << 10)
	if qTile < 1 {
		qTile = 1
	}
	for q0 := 0; q0 < len(luts); q0 += qTile {
		q1 := min(q0+qTile, len(luts))
		for r0 := 0; r0 < rows; r0 += blockRows {
			r1 := min(r0+blockRows, rows)
			tile := codes[r0*dim : r1*dim]
			for qi := q0; qi < q1; qi++ {
				SqDistSQ8LUTBlockInto(out[qi*rows+r0:qi*rows+r1], luts[qi], tile)
			}
		}
	}
}

// SqDistBlockInto computes out[r] = SqDist(q, row_r) for every row of a
// contiguous row-major float32 block, keeping the query hot across rows
// instead of paying per-call setup. Each row uses the same lanes,
// accumulators, and final combine as SqDist, so every out[r] is
// bit-identical to the per-row kernel. It panics if the block is not a
// whole number of rows or out has the wrong length.
func SqDistBlockInto(out []float64, q, rows []float32) {
	n := blockRows(len(rows), len(q), len(out))
	for r := 0; r < n; r++ {
		row := rows[r*len(q) : (r+1)*len(q)]
		var s0, s1, s2, s3 float64
		i := 0
		for ; i+4 <= len(q); i += 4 {
			d0 := float64(q[i]) - float64(row[i])
			d1 := float64(q[i+1]) - float64(row[i+1])
			d2 := float64(q[i+2]) - float64(row[i+2])
			d3 := float64(q[i+3]) - float64(row[i+3])
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		for ; i < len(q); i++ {
			d := float64(q[i]) - float64(row[i])
			s0 += d * d
		}
		out[r] = (s0 + s1) + (s2 + s3)
	}
}

// SqDistSQ8BlockInto is SqDistBlockInto over a quantized code block:
// out[r] = SqDistSQ8(qa, step, row_r), bit-identical per row to the
// scalar kernel.
func SqDistSQ8BlockInto(out []float64, qa, step []float32, codes []uint8) {
	checkLen(qa, step)
	n := blockRows(len(codes), len(qa), len(out))
	for r := 0; r < n; r++ {
		row := codes[r*len(qa) : (r+1)*len(qa)]
		var s0, s1, s2, s3 float64
		i := 0
		for ; i+4 <= len(qa); i += 4 {
			d0 := qa[i] - step[i]*float32(row[i])
			d1 := qa[i+1] - step[i+1]*float32(row[i+1])
			d2 := qa[i+2] - step[i+2]*float32(row[i+2])
			d3 := qa[i+3] - step[i+3]*float32(row[i+3])
			s0 += float64(d0) * float64(d0)
			s1 += float64(d1) * float64(d1)
			s2 += float64(d2) * float64(d2)
			s3 += float64(d3) * float64(d3)
		}
		for ; i < len(qa); i++ {
			d := qa[i] - step[i]*float32(row[i])
			s0 += float64(d) * float64(d)
		}
		out[r] = (s0 + s1) + (s2 + s3)
	}
}

// SqDistSQ8BatchInto is the query-major blockwise batch kernel: nq
// adjusted queries (rows of qas) against every row of a quantized code
// block, tiled so that blockRows code rows stay cache-resident while
// all nq queries consume them — batched search amortizes each candidate
// load across the whole query tile. out[qi*rows + r] receives query
// qi's squared kernel distance to row r, bit-identical to SqDistSQ8.
// blockRows <= 0 selects a tile sized for a 32 KiB L1.
func SqDistSQ8BatchInto(out []float64, qas []float32, nq int, step []float32, codes []uint8, blockRows int) {
	dim := len(step)
	if nq <= 0 || len(qas) != nq*dim {
		panic(fmt.Sprintf("vec: SqDistSQ8BatchInto qas length %d not %d queries of dim %d", len(qas), nq, dim))
	}
	rows := len(codes) / dim
	if dim == 0 || len(codes)%dim != 0 || len(out) != nq*rows {
		panic(fmt.Sprintf("vec: SqDistSQ8BatchInto block %d / out %d mismatch for dim %d, nq %d", len(codes), len(out), dim, nq))
	}
	if blockRows <= 0 {
		blockRows = defaultTileRows(dim, 1)
	}
	for r0 := 0; r0 < rows; r0 += blockRows {
		r1 := r0 + blockRows
		if r1 > rows {
			r1 = rows
		}
		tile := codes[r0*dim : r1*dim]
		for qi := 0; qi < nq; qi++ {
			qa := qas[qi*dim : (qi+1)*dim]
			SqDistSQ8BlockInto(out[qi*rows+r0:qi*rows+r1], qa, step, tile)
		}
	}
}

// SqDistBatchInto is the float32 counterpart of SqDistSQ8BatchInto —
// the baseline the quantized batch kernel is benchmarked against. Each
// entry is bit-identical to SqDist.
func SqDistBatchInto(out []float64, qs []float32, nq int, dim int, rows []float32, blockRows int) {
	if nq <= 0 || dim <= 0 || len(qs) != nq*dim {
		panic(fmt.Sprintf("vec: SqDistBatchInto qs length %d not %d queries of dim %d", len(qs), nq, dim))
	}
	n := len(rows) / dim
	if len(rows)%dim != 0 || len(out) != nq*n {
		panic(fmt.Sprintf("vec: SqDistBatchInto block %d / out %d mismatch for dim %d, nq %d", len(rows), len(out), dim, nq))
	}
	if blockRows <= 0 {
		blockRows = defaultTileRows(dim, 4)
	}
	for r0 := 0; r0 < n; r0 += blockRows {
		r1 := r0 + blockRows
		if r1 > n {
			r1 = n
		}
		tile := rows[r0*dim : r1*dim]
		for qi := 0; qi < nq; qi++ {
			q := qs[qi*dim : (qi+1)*dim]
			SqDistBlockInto(out[qi*n+r0:qi*n+r1], q, tile)
		}
	}
}

// defaultTileRows sizes a row tile to about half a 32 KiB L1 for the
// given bytes-per-element, never below one row.
func defaultTileRows(dim, elemBytes int) int {
	r := 16 * 1024 / (dim * elemBytes)
	if r < 1 {
		r = 1
	}
	return r
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

func checkQuantLen(qa, step []float32, codes []uint8) {
	if len(qa) != len(step) || len(qa) != len(codes) {
		panic(fmt.Sprintf("vec: quant length mismatch qa=%d step=%d codes=%d", len(qa), len(step), len(codes)))
	}
}
