// Package metric defines the paper's distance model (§3): a normalized
// spatial Euclidean distance ds, a normalized semantic Euclidean distance
// dt, and their λ-weighted combination d = λ·ds + (1−λ)·dt, plus the
// projected-space variant d't used by CSSIA. All distances are normalized
// by conservative maxima estimated from per-dimension corner points
// (paper footnote 1), so every component lies in [0,1].
//
// The package also carries the distance-calculation counters the
// evaluation reports (Fig. 16 measures exactly these).
package metric

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/vec"
)

// SemanticMetric selects the semantic distance function. The paper's
// theory (§4.2) holds for arbitrary metrics; the evaluation uses the
// normalized Euclidean distance, and the angular option exists to
// demonstrate (and test) metric-independence.
type SemanticMetric int

const (
	// EuclideanSemantic is the paper's normalized Euclidean distance.
	EuclideanSemantic SemanticMetric = iota
	// AngularSemantic is the angle between embedding vectors divided by
	// π — the metric counterpart of cosine similarity.
	AngularSemantic
)

// Space is the normalized spatio-semantic metric space of one dataset.
type Space struct {
	// DsMax and DtMax are the conservative spatial/semantic diameter
	// estimates used as normalizers.
	DsMax, DtMax float64
	// DtProjMax normalizes distances in the m-dimensional projected
	// space (set by SetProjectedNormalizer; zero until then).
	DtProjMax float64
	// Semantic selects the semantic distance (default Euclidean).
	// Angular distances are natively in [0,1], so DtMax is 1 then.
	SemanticKind SemanticMetric
}

// NewSpace estimates the normalizers from the dataset using the corner
// points of the per-dimension bounding box (paper footnote 1: distance
// from the virtual all-minima point to the virtual all-maxima point),
// with the Euclidean semantic metric.
func NewSpace(ds *dataset.Dataset) (*Space, error) {
	return NewSpaceWithSemantic(ds, EuclideanSemantic)
}

// NewSpaceWithSemantic is NewSpace with an explicit semantic metric.
func NewSpaceWithSemantic(ds *dataset.Dataset, kind SemanticMetric) (*Space, error) {
	if ds.Len() == 0 {
		return nil, fmt.Errorf("metric: empty dataset")
	}
	minX, maxX := ds.Objects[0].X, ds.Objects[0].X
	minY, maxY := ds.Objects[0].Y, ds.Objects[0].Y
	vecs := make([][]float32, ds.Len())
	for i := range ds.Objects {
		o := &ds.Objects[i]
		if o.X < minX {
			minX = o.X
		}
		if o.X > maxX {
			maxX = o.X
		}
		if o.Y < minY {
			minY = o.Y
		}
		if o.Y > maxY {
			maxY = o.Y
		}
		vecs[i] = o.Vec
	}
	s := &Space{
		DsMax:        math.Hypot(maxX-minX, maxY-minY),
		SemanticKind: kind,
	}
	if kind == AngularSemantic {
		s.DtMax = 1 // angular distances are natively normalized
	} else {
		lo, hi := vec.MinMax(vecs)
		s.DtMax = vec.Dist(lo, hi)
	}
	if s.DsMax == 0 {
		s.DsMax = 1 // all objects at one location; any positive value works
	}
	if s.DtMax == 0 {
		s.DtMax = 1
	}
	return s, nil
}

// SetProjectedNormalizer estimates DtProjMax from the projected vectors
// with the same corner-point rule.
func (s *Space) SetProjectedNormalizer(projected [][]float32) {
	if len(projected) == 0 {
		s.DtProjMax = 1
		return
	}
	lo, hi := vec.MinMax(projected)
	s.DtProjMax = vec.Dist(lo, hi)
	if s.DtProjMax == 0 {
		s.DtProjMax = 1
	}
}

// SetProjectedNormalizerArena is SetProjectedNormalizer over a
// contiguous row-major arena of projected vectors with the given
// dimensionality (the index's SoA layout), avoiding the per-row slice
// headers.
func (s *Space) SetProjectedNormalizerArena(arena []float32, dim int) {
	if len(arena) == 0 || dim <= 0 {
		s.DtProjMax = 1
		return
	}
	lo, hi := vec.MinMaxStrided(arena, dim)
	s.DtProjMax = vec.Dist(lo, hi)
	if s.DtProjMax == 0 {
		s.DtProjMax = 1
	}
}

// Stats counts the work done while answering one query (or a batch).
// The paper reports visited objects and per-space distance calculations.
type Stats struct {
	// SpatialDistCalcs and SemanticDistCalcs count object-level distance
	// computations in each space (Fig. 16's metric is their sum).
	SpatialDistCalcs  int64 `json:"spatialDistCalcs"`
	SemanticDistCalcs int64 `json:"semanticDistCalcs"`
	// VisitedObjects counts objects whose full distance to the query was
	// evaluated.
	VisitedObjects int64 `json:"visitedObjects"`
	// InterPruned counts objects skipped because their whole cluster (or
	// subtree) was pruned; IntraPruned counts objects skipped inside an
	// examined cluster.
	InterPruned int64 `json:"interPruned"`
	IntraPruned int64 `json:"intraPruned"`
	// ClustersExamined and ClustersPruned count hybrid clusters (or
	// index nodes) examined vs pruned wholesale.
	ClustersExamined int64 `json:"clustersExamined"`
	ClustersPruned   int64 `json:"clustersPruned"`
	// ClustersOrdered counts clusters whose position in the visit order
	// was actually materialized — pops from the lazy best-first
	// frontier, each cluster at most once. An eager sort orders every
	// cluster; on a pruned query ClustersOrdered equals ClustersExamined
	// and stays far below ClustersExamined+ClustersPruned.
	ClustersOrdered int64 `json:"clustersOrdered"`
	// ClustersRouted counts clusters whose visit position was decided by
	// the learned router instead of the admissible bound order: every
	// cluster the routed approximate mode visited. Zero on exact and on
	// unrouted queries.
	ClustersRouted int64 `json:"clustersRouted"`
	// QuantPruned and QuantReranked are always zero: kept for bench/
	// (and the JSON clients that read the keys) until the benchmark-only
	// change drops the core.quant_rerank_ratio row.
	QuantPruned   int64 `json:"quantPruned"`
	QuantReranked int64 `json:"quantReranked"`
	// AnchorPruned counts visited objects excluded before any semantic
	// kernel ran by a stored lower bound on their semantic distance: the
	// anchor bound or the object's own array threshold. A visited base
	// row is either AnchorPruned or costs one semantic kernel.
	AnchorPruned int64 `json:"anchorPruned"`
}

// Add accumulates o into s.
func (s *Stats) Add(o *Stats) {
	s.SpatialDistCalcs += o.SpatialDistCalcs
	s.SemanticDistCalcs += o.SemanticDistCalcs
	s.VisitedObjects += o.VisitedObjects
	s.InterPruned += o.InterPruned
	s.IntraPruned += o.IntraPruned
	s.ClustersExamined += o.ClustersExamined
	s.ClustersPruned += o.ClustersPruned
	s.ClustersOrdered += o.ClustersOrdered
	s.ClustersRouted += o.ClustersRouted
	s.QuantPruned += o.QuantPruned
	s.QuantReranked += o.QuantReranked
	s.AnchorPruned += o.AnchorPruned
}

// DistCalcs returns the total number of per-space distance calculations.
func (s *Stats) DistCalcs() int64 { return s.SpatialDistCalcs + s.SemanticDistCalcs }

// spatialSqMin and spatialSqMax bracket the squared lengths for which
// the plain sqrt(dx²+dy²) is as accurate as math.Hypot: far enough from
// the subnormal range that neither square loses bits the sum keeps, and
// far enough from overflow that the sum is finite.
const (
	spatialSqMin = 1e-280
	spatialSqMax = 1e280
)

// SpatialXY returns the normalized spatial distance between two raw
// coordinate pairs. It is the one definition the index, the linear scan
// and the tests share, so they agree bit for bit. Inside the safe range
// it is one sqrt; outside it (coincident points, NaN and ±Inf included)
// math.Hypot's rescaling decides.
func (s *Space) SpatialXY(ax, ay, bx, by float64) float64 {
	dx, dy := ax-bx, ay-by
	if sq := dx*dx + dy*dy; sq > spatialSqMin && sq < spatialSqMax {
		return math.Sqrt(sq) / s.DsMax
	}
	return math.Hypot(dx, dy) / s.DsMax
}

// Spatial returns ds(q,o), counting one spatial distance calculation.
func (s *Space) Spatial(st *Stats, qx, qy, ox, oy float64) float64 {
	if st != nil {
		st.SpatialDistCalcs++
	}
	return s.SpatialXY(qx, qy, ox, oy)
}

// SemanticVec returns the normalized semantic distance between two
// n-dimensional vectors under the space's semantic metric.
func (s *Space) SemanticVec(a, b []float32) float64 {
	if s.SemanticKind == AngularSemantic {
		return vec.AngularDist(a, b)
	}
	return vec.Dist(a, b) / s.DtMax
}

// Semantic returns dt(q,o), counting one semantic distance calculation.
func (s *Space) Semantic(st *Stats, a, b []float32) float64 {
	if st != nil {
		st.SemanticDistCalcs++
	}
	return s.SemanticVec(a, b)
}

// semanticBoundSlack inflates the squared early-abandon limit so that a
// candidate is only abandoned when its distance provably exceeds the
// bound: without the slack, floating-point rounding in bound*DtMax and
// the squaring could abandon a candidate whose exact normalized distance
// ties the bound to the last bit. 1e-9 relative is orders of magnitude
// above the rounding error of these few operations and orders of
// magnitude below any distance gap the float32 inputs can represent.
const semanticBoundSlack = 1e-9

// SemanticVecBound is SemanticVec with early abandonment: if the
// distance provably exceeds bound, it returns ok=false (and an undefined
// distance) without finishing the kernel. When ok is true the returned
// distance is exact and bit-identical to SemanticVec. Only the Euclidean
// metric can abandon (its partial sums are monotone); the angular metric
// computes fully and always returns ok=true.
func (s *Space) SemanticVecBound(a, b []float32, bound float64) (float64, bool) {
	if s.SemanticKind == AngularSemantic {
		return vec.AngularDist(a, b), true
	}
	if math.IsInf(bound, 1) {
		return vec.Dist(a, b) / s.DtMax, true
	}
	if bound < 0 {
		bound = 0
	}
	limit := bound * s.DtMax
	limit *= limit
	limit += limit * semanticBoundSlack
	sq := vec.SqDistBound(a, b, limit)
	if sq > limit {
		return 0, false
	}
	return math.Sqrt(sq) / s.DtMax, true
}

// SemanticBound is SemanticVecBound counting one semantic distance
// calculation (abandoned kernels count too: the work matters, not the
// outcome — and the paper's Fig. 16 counts per-object calculations).
func (s *Space) SemanticBound(st *Stats, a, b []float32, bound float64) (float64, bool) {
	if st != nil {
		st.SemanticDistCalcs++
	}
	return s.SemanticVecBound(a, b, bound)
}

// SemanticProjVec returns the normalized semantic distance in the
// projected space (d't). SetProjectedNormalizer must have been called.
func (s *Space) SemanticProjVec(a, b []float32) float64 {
	return vec.Dist(a, b) / s.DtProjMax
}

// SemanticProj returns d't(q,o), counting one semantic distance
// calculation.
func (s *Space) SemanticProj(st *Stats, a, b []float32) float64 {
	if st != nil {
		st.SemanticDistCalcs++
	}
	return s.SemanticProjVec(a, b)
}

// Combine applies the λ-weighting of Eq. 1.
func Combine(lambda, ds, dt float64) float64 {
	return lambda*ds + (1-lambda)*dt
}

// Distance computes d(q,o) = λ·ds + (1−λ)·dt for two objects, counting
// one visited object and one distance calculation per space.
func (s *Space) Distance(st *Stats, lambda float64, q, o *dataset.Object) float64 {
	if st != nil {
		st.VisitedObjects++
	}
	ds := s.Spatial(st, q.X, q.Y, o.X, o.Y)
	dt := s.Semantic(st, q.Vec, o.Vec)
	return Combine(lambda, ds, dt)
}
