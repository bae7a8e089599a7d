package core

import (
	"math"
	"time"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/metric"
	"repro/internal/vec"
)

// SQ8-quantized arena: the two-resolution pattern of CSSIA (§5: cheap
// representation for ordering and pruning, full precision for final
// scoring) pushed down into the intra-cluster scan. Alongside the
// float32 vecArena the index keeps one byte per dimension (codes) and
// one float32 per row (an admissible residual), trained at build time
// and maintained through insert/clone/rebuild exactly like the float32
// arena. Two consumers:
//
//   - Exact search (QuantAuto): scanCluster runs a filter-then-rerank
//     pass — the asymmetric kernel's certain lower bound (see
//     vec.QLowerBound) prunes candidates against the k-th distance, and
//     only survivors pay the exact n-dimensional float32 kernel.
//     Every exclusion is provably d > U, so results stay bit-identical
//     to the unquantized scan (see scanClusterQuant for the argument).
//   - Approx search (QuantOnly): a CSSIA-style scan scores whole
//     clusters with the blockwise quantized kernel, overfetches
//     QuantRerank·k candidates by estimated distance, and reranks the
//     pool exactly — a tunable recall/speed trade.
//
// Quantization is automatically disabled for the angular semantic
// metric (the bound pair is Euclidean) and by Config.DisableQuant.

// QuantMode selects how the SQ8 arena participates in one query.
type QuantMode int

const (
	// QuantAuto (the zero value) uses the quantized filter+rerank pass
	// wherever it provably preserves exactness, and leaves approximate
	// search untouched.
	QuantAuto QuantMode = iota
	// QuantOff forces the pure float32 path for this query.
	QuantOff
	// QuantOnly answers an approximate query from the quantized arena:
	// candidates are selected by quantized distance estimates and only a
	// final QuantRerank·k pool is rescored exactly. Approx-only; the
	// public request layer rejects it for exact queries.
	QuantOnly
)

// sq8LUTMaxDim caps the dimensionality at which the QuantOnly bulk scan
// scores through vec.SQ8LUT lookup tables: the LUT accumulates float32
// in one chain per row, so its agreement with the direct kernel decays
// as ~dim·2⁻²⁴ and the bound slack only provably absorbs it up to about
// 10³ dimensions. Above the cap the scan falls back to the bit-exact
// SqDistSQ8BlockInto.
const sq8LUTMaxDim = 1000

// DefaultQuantRerank is the QuantOnly overfetch multiplier used when a
// request leaves it zero: the exact rerank pool holds 4·k candidates,
// which holds recall@10 ≥ 0.99 on the benchmark workloads.
const DefaultQuantRerank = 4

// quantArena is the SQ8 companion of vecArena: row i of codes is the
// quantized form of vecArena row i, resid[i] its admissible residual.
// Like the float32 arenas it grows append-only and is shared across COW
// clones (CloneForWrite copies this struct's header; appendRow writes
// only past the parent's length or into reallocated backing).
type quantArena struct {
	cb    vec.SQ8Codebook
	codes []uint8
	resid []float32
}

// row returns code row i.
func (qa *quantArena) row(i uint32, dim int) []uint8 {
	return qa.codes[int(i)*dim : (int(i)+1)*dim : (int(i)+1)*dim]
}

// trainQuant trains the SQ8 codebook over the full vector arena and
// encodes every row (parallel). Returns nil when quantization does not
// apply: disabled by config, or a non-Euclidean semantic metric (the
// bound pair relies on the Euclidean triangle inequality).
func (x *Index) trainQuant() *quantArena {
	if x.cfg.DisableQuant || x.space.SemanticKind != metric.EuclideanSemantic || len(x.vecArena) == 0 {
		return nil
	}
	cb := vec.TrainSQ8(x.vecArena, x.dim)
	n := len(x.objects)
	qa := &quantArena{cb: cb, codes: make([]uint8, n*x.dim), resid: make([]float32, n)}
	parallelFor(n, x.cfg.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			qa.resid[i] = qa.cb.EncodeInto(qa.row(uint32(i), x.dim), x.vecAt(uint32(i)))
		}
	})
	return qa
}

// appendQuantRow encodes the just-appended object into a new quant
// arena row, mirroring appendArenaRows' growth discipline (and its COW
// safety argument: growth reallocates, appends land past the parent's
// length). No-op when the index has no quant arena.
func (x *Index) appendQuantRow(idx uint32) {
	qa := x.quant
	if qa == nil {
		return
	}
	d := x.dim
	if need := len(qa.codes) + d; need > cap(qa.codes) {
		nc := make([]uint8, len(qa.codes), arenaCap(need, cap(qa.codes)))
		copy(nc, qa.codes)
		qa.codes = nc
	}
	qa.codes = qa.codes[:len(qa.codes)+d]
	r := qa.cb.EncodeInto(qa.row(idx, d), x.objects[idx].Vec)
	if need := len(qa.resid) + 1; need > cap(qa.resid) {
		nr := make([]float32, len(qa.resid), arenaCap(need, cap(qa.resid)))
		copy(nr, qa.resid)
		qa.resid = nr
	}
	qa.resid = append(qa.resid, r)
}

// rerankMult normalizes a QuantOnly overfetch multiplier.
func rerankMult(r int) int {
	if r <= 0 {
		return DefaultQuantRerank
	}
	return r
}

// quantSurvivor is one pass-1 survivor of the filter+rerank scan: the
// element index within the cluster and its already-computed spatial
// distance (reused by the rerank pass so modes agree on one spatial
// computation per visited object).
type quantSurvivor struct {
	ei int32
	ds float64
}

// quantTimeSampleEvery is the deterministic sampling rate of the
// quant-phase wall clock: one in this many quantized cluster scans per
// query is timed, and flushQuantTiming scales the sample up to the
// query's QuantNanos estimate. The first scan is always in the sample,
// so any query that took the quantized path reports a non-zero phase.
const quantTimeSampleEvery = 16

// flushQuantTiming folds the query's sampled quantized-scan windows
// into sc.obs.QuantNanos, scaled by the sampling rate and clamped to
// maxNanos (the enclosing scan phase's wall time, which keeps the
// QuantNanos ⊆ ScanNanos phase invariant under sampling error). Called
// where the scan phase closes; resets the sample state for the next
// query on the pooled scratch. No-op when no quantized scan ran.
func (sc *searchScratch) flushQuantTiming(maxNanos int64) {
	if sc.quantScans == 0 {
		return
	}
	timed := (sc.quantScans + quantTimeSampleEvery - 1) / quantTimeSampleEvery
	est := sc.quantSampledNanos * sc.quantScans / timed
	if est > maxNanos {
		est = maxNanos
	}
	sc.obs.QuantNanos += est
	sc.quantScans, sc.quantSampledNanos = 0, 0
}

// scanClusterQuant is the filter-then-rerank form of scanCluster's
// object loop, entered only with a full heap, λ < 1 and a quant block
// present. Exactness argument (the property tests in quant_equiv_test
// pin it): the final heap contents are a pure function of the offered
// candidate set (knn.Heap breaks distance ties by ID), so it suffices
// that every candidate withheld here has combined distance d provably
// greater than the final bound U_final. Four exclusions occur, the
// first three against u0, the bound at cluster entry — stale but never
// smaller than the live one, so they prune no more than a live-bound
// loop would:
//
//   - the intra-cluster cut: the suffix has d ≥ suffixBound > u0 ≥
//     U_final (Lemma 4.5, component-wise);
//   - the row gate: λ·ds + (1−λ)·lb > u0 for a certain lower bound lb on
//     the row's semantic distance (threshold and anchor, see rowGate);
//   - the quantized filter excludes a candidate only when the certain
//     lower bound on its semantic distance exceeds the per-candidate
//     budget (u0 − λ·ds)/(1−λ), hence d = λ·ds + (1−λ)·dt > u0;
//   - the rerank pass reuses the exact early-abandoning kernel with the
//     live bound, identical to the reference loop.
//
// Survivors are rescored with the same float32 kernel the reference
// uses, so kept distances are bit-identical too. Every visited row is
// counted once: VisitedObjects = AnchorPruned + QuantPruned +
// QuantReranked over this scan. The pass-1 window is wall-timed on a
// deterministic 1-in-quantTimeSampleEvery sample of the query's scans
// (see flushQuantTiming): per-cluster timestamps cost two clock reads
// per examined cluster, which at realistic cluster counts was most of
// the tracer's overhead.
func (x *Index) scanClusterQuant(sc *searchScratch, q *dataset.Object, c *hybrid, blk *clusterBlock, g *rowGate, u0 float64, h *knn.Heap, st *metric.Stats) {
	qa := x.quant
	var t0 time.Time
	timed := false
	if sc.obs != nil {
		if sc.quantScans%quantTimeSampleEvery == 0 {
			timed = true
			t0 = time.Now()
		}
		sc.quantScans++
	}
	if !sc.quantQ {
		qa.cb.AdjustQueryInto(sc.qAdj, q.Vec)
		sc.quantQ = true
	}
	dim := x.dim
	lambda, invLam := g.lambda, g.invLam
	tombs := x.deltaTombs()
	// Pass 1 reads the cluster's block and thresholds only — never
	// x.objects. A candidate can only displace a result with
	// dt < (u0 − λ·ds)/(1−λ); in the kernel's unnormalized units that
	// budget is the line a − b·ds, whose divisions are paid here once.
	line := qa.cb.PruneLine(u0*x.space.DtMax/invLam, lambda*x.space.DtMax/invLam)
	elems := c.elems
	xs, ys, resid := blk.xs[:len(elems)], blk.ys[:len(elems)], blk.resid[:len(elems)]
	sur := sc.survivors[:0]
	var visited, gated int64
	for ei := range elems {
		e := &elems[ei]
		if g.suffixBound(e) > u0 {
			if st != nil {
				st.IntraPruned += int64(len(elems) - ei)
			}
			break
		}
		if tombs != nil && tombs.get(e.idx) {
			continue
		}
		visited++
		ds := x.space.SpatialXY(q.X, q.Y, xs[ei], ys[ei])
		if metric.Combine(lambda, ds, g.semLower(ei, e)) > u0 {
			gated++
			continue
		}
		limit := line.Limit(ds, resid[ei])
		var sq float64
		if limit >= 0 {
			sq = vec.SqDistSQ8Bound(sc.qAdj, qa.cb.Step, blk.codes[ei*dim:(ei+1)*dim], limit)
		}
		if sq > limit {
			continue
		}
		sur = append(sur, quantSurvivor{ei: int32(ei), ds: ds})
	}
	if st != nil {
		// Every visited row cost one spatial distance and was gated,
		// pruned by the kernel, or survived.
		st.VisitedObjects += visited
		st.SpatialDistCalcs += visited
		st.AnchorPruned += gated
		st.QuantPruned += visited - gated - int64(len(sur))
	}
	sc.survivors = sur
	if timed {
		sc.quantSampledNanos += time.Since(t0).Nanoseconds()
	}
	for _, s := range sur {
		e := &c.elems[s.ei]
		o := &x.objects[e.idx]
		if st != nil {
			st.QuantReranked++
		}
		u, _ := h.Bound()
		dtBound := (u - lambda*s.ds) / invLam
		dt, ok := x.space.SemanticBound(st, q.Vec, o.Vec, dtBound)
		if !ok {
			if sc.obs != nil {
				sc.obs.EarlyAbandons++
			}
			continue
		}
		h.Push(knn.Result{ID: o.ID, Dist: metric.Combine(lambda, s.ds, dt)})
	}
}

// searchQuantWith is the QuantOnly approximate algorithm: CSSIA's
// projected-space cluster ordering and pruning, but with the
// intra-cluster scan served entirely from the quantized arena — one
// blockwise kernel call scores the whole cluster, candidates are kept
// by estimated distance in an overfetched pool of rerank·k, and the
// pool is rescored exactly at the end. Relative to plain CSSIA it
// trades the per-candidate n-dimensional float32 kernels for byte-wide
// block scans plus k·rerank exact kernels.
func (x *Index) searchQuantWith(sc *searchScratch, dst []knn.Result, q *dataset.Object, k, rerank int, lambda float64, st *metric.Stats) []knn.Result {
	var phase time.Time
	if sc.obs != nil {
		phase = time.Now()
	}
	qProj := sc.qProj
	x.pcaModel.TransformInto(qProj, q.Vec)
	x.fillSpatialCentroidDists(sc, q)
	for t := range sc.dtqProj {
		sc.dtqProj[t] = x.space.SemanticProjVec(qProj, x.tCentProj[t])
	}
	x.fillSpatialTerms(sc, lambda)
	f := x.startFrontier(sc, q, 1-lambda, sc.dtqProj, x.tRadProj, true)
	if sc.obs != nil {
		sc.obs.ClustersTotal += int64(len(x.clusters))
		sc.obs.OrderNanos += time.Since(phase).Nanoseconds()
		phase = time.Now()
	}

	qa := x.quant
	qa.cb.AdjustQueryInto(sc.qAdj, q.Vec)
	sc.quantQ = true
	// Bulk scoring goes through the per-query lookup tables where the
	// precision contract allows (see sq8LUTMaxDim): one table load + add
	// per byte instead of the convert/multiply/subtract chain.
	useLUT := x.dim <= sq8LUTMaxDim
	if useLUT {
		sc.lut = qa.cb.BuildSQ8LUTInto(sc.lut, sc.qAdj)
	}
	kq := k * rerank
	tombs := x.deltaTombs()
	cands := sc.cands[:0]
	u := math.Inf(1)      // estimated distance to the kq-th candidate
	uPrime := math.Inf(1) // projected-space bound, as in CSSIA
	for t := range sc.dtqKnown {
		sc.dtqKnown[t] = false
	}
	invDt := 1 / x.space.DtMax

	for {
		c, lb, ok := f.peek()
		if !ok {
			break
		}
		if len(cands) >= kq && lb >= uPrime {
			f.chargePruned(st)
			break
		}
		if sc.budgetExpired() {
			break
		}
		f.pop(c)
		if st != nil {
			st.ClustersOrdered++
			st.ClustersExamined++
		}
		if len(c.elems) == 0 {
			continue
		}
		dtqC := x.centroidDist(sc, q, c.t)
		enclosed := sc.dsq[c.s] < x.sRad[c.s] && dtqC < x.tRad[c.t]
		dqC := lambda*sc.dsq[c.s] + (1-lambda)*dtqC

		// One blockwise kernel call scores the whole cluster from its
		// contiguous code block.
		n := len(c.elems)
		blk := x.block(&sc.blk, c)
		est := growSlice(sc.est, n)
		sc.est = est
		var tq time.Time
		timed := false
		if sc.obs != nil {
			if sc.quantScans%quantTimeSampleEvery == 0 {
				timed = true
				tq = time.Now()
			}
			sc.quantScans++
		}
		if useLUT {
			vec.SqDistSQ8LUTBlockInto(est, sc.lut, blk.codes)
		} else {
			vec.SqDistSQ8BlockInto(est, sc.qAdj, qa.cb.Step, blk.codes)
		}
		if timed {
			sc.quantSampledNanos += time.Since(tq).Nanoseconds()
		}
		if st != nil {
			// The block scan is this mode's semantic distance work.
			st.SemanticDistCalcs += int64(n)
		}
		for ei := range c.elems {
			el := &c.elems[ei]
			if !enclosed && len(cands) >= kq {
				bound := lambda*el.ds + (1-lambda)*el.dt
				if dqC-bound > u {
					if st != nil {
						st.IntraPruned += int64(n - ei)
					}
					break
				}
			}
			if tombs != nil && tombs.get(el.idx) {
				continue
			}
			if st != nil {
				st.VisitedObjects++
			}
			ds := x.space.Spatial(st, q.X, q.Y, blk.xs[ei], blk.ys[ei])
			d := metric.Combine(lambda, ds, math.Sqrt(est[ei])*invDt)
			if d < u || len(cands) < kq {
				dpr := metric.Combine(lambda, ds, x.space.SemanticProjVec(qProj, x.projAt(el.idx)))
				cands.push(cand{id: x.objects[el.idx].ID, idx: el.idx, d: d, dpr: dpr})
				if len(cands) > kq {
					cands.popMax()
				}
				if len(cands) == kq {
					u = cands[0].d
					uPrime = cands.maxDPr()
				}
			}
		}
	}

	// Exact rerank: the final k come from rescoring the candidate pool
	// with the full float32 kernel (early-abandoning against the
	// rerank-local bound).
	var tr time.Time
	if sc.obs != nil {
		tr = time.Now()
	}
	h := &sc.heap
	h.Reset(k)
	for i := range cands {
		o := &x.objects[cands[i].idx]
		if st != nil {
			st.QuantReranked++
		}
		ds := x.space.Spatial(st, q.X, q.Y, o.X, o.Y)
		var dt float64
		if u2, full := h.Bound(); full && lambda < 1 {
			var ok bool
			dt, ok = x.space.SemanticBound(st, q.Vec, o.Vec, (u2-lambda*ds)/(1-lambda))
			if !ok {
				if sc.obs != nil {
					sc.obs.EarlyAbandons++
				}
				continue
			}
		} else {
			dt = x.space.Semantic(st, q.Vec, o.Vec)
		}
		h.Push(knn.Result{ID: o.ID, Dist: metric.Combine(lambda, ds, dt)})
	}
	sc.cands = cands[:0]
	if sc.obs != nil {
		now := time.Now()
		rerankNanos := now.Sub(tr).Nanoseconds()
		scanNanos := now.Sub(phase).Nanoseconds()
		// The block-scan estimate and the rerank window together must
		// stay inside the scan phase, so the estimate's clamp leaves room
		// for the rerank nanos accrued below.
		sc.flushQuantTiming(scanNanos - rerankNanos)
		sc.obs.QuantNanos += rerankNanos
		sc.obs.ScanNanos += scanNanos
	}
	// The write overlay is scanned in full with the exact kernel, so
	// QuantOnly recall over overlay inserts is never worse than over a
	// compacted base.
	x.scanDelta(sc, q, lambda, h, st)
	return h.AppendSorted(dst)
}
