package vec

// The AVX bodies of the build kernels (build_amd64.s). Each covers the
// part of its kernel the lanes divide evenly; the caller in build.go
// runs the rest with the reference's own expressions.

// nearestCol2Lanes scans centroids [0, len(c0)) (a positive multiple of
// eight) for NearestCol2, eight per pass over two sets of four lanes,
// every lane seeded with centroid 0's distance seed, and returns the
// first strict minimum and its distance.
//
//go:noescape
func nearestCol2Lanes(x0, x1 float64, c0, c1 []float64, seed float64) (best int, bestD float64)

// nearestCol4Lanes is nearestCol2Lanes for NearestCol4.
//
//go:noescape
func nearestCol4Lanes(x0, x1, x2, x3 float64, c0, c1, c2, c3 []float64, seed float64) (best int, bestD float64)

// addScaledRowsAVX is AddScaledRows with the output columns on the lanes,
// sixteen per pass over the rows (len(rows) a positive multiple of
// len(dst)).
//
//go:noescape
func addScaledRowsAVX(dst, coef []float64, stride int, rows []float64)

// nearestPrefixAVX is Prefix.Nearest over the transposed prefixes cols
// of k8 (a multiple of eight) points, eight points per float32 lane.
//
//go:noescape
func nearestPrefixAVX(head, cols []float32, k8 int) int

// foldMinMaxAVX is FoldMinMax for rows of at least eight values, eight
// dimensions per instruction.
//
//go:noescape
func foldMinMaxAVX(lo, hi, rows []float32)

// addWidenedAVX is AddWidened over the first len(row)&^3 values, four
// per instruction.
//
//go:noescape
func addWidenedAVX(acc []float64, row []float32)

// project4AVX is Project4 with the four rows on the lanes.
//
//go:noescape
func project4AVX(dst []float32, xs *[4][]float32, mean, comp []float64)
