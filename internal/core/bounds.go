package core

// lowerBound evaluates L(q,C) of Eq. 4 from the query's distances to the
// cluster's two centroids and the two radii. It covers the four enclosure
// cases: when q lies inside a ball, that side contributes nothing to the
// bound (its per-side lower bound would be negative and is clamped by the
// case analysis); when q lies inside both balls, the bound is zero.
// Each product is rounded on its own (the conversions forbid a fused
// multiply-add), so on every platform the bound equals the sum of its
// two sideTerms bit for bit — the identity the frontier orders by.
func lowerBound(lambda, dsq, rs, dtq, rt float64) float64 {
	sOut := dsq >= rs
	tOut := dtq >= rt
	switch {
	case sOut && tOut:
		return float64(lambda*(dsq-rs)) + float64((1-lambda)*(dtq-rt))
	case sOut:
		return lambda * (dsq - rs)
	case tOut:
		return (1 - lambda) * (dtq - rt)
	default:
		return 0
	}
}
