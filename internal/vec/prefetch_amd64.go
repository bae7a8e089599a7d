package vec

// Prefetch asks the CPU to bring every cache line v spans into all of
// its cache levels (PREFETCHT0), without waiting for them: a hint that
// never faults, writes nothing and changes no result. A row loop issues
// it for the rows it is about to read, so their misses overlap.
//
//go:noescape
func Prefetch(v []float32)
