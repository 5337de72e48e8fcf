package tile

import (
	"math"

	"neusight/internal/gpu"
	"neusight/internal/kernels"
)

// ReferenceLookup is the linear nearest-match scan the indexed Lookup
// replaced, kept verbatim as the oracle for equivalence tests: every record
// is visited in order, filtered by category and output rank, and its
// log-space distance to the query recomputed from scratch.
func (db *DB) ReferenceLookup(k kernels.Kernel, g gpu.Spec) (Tile, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	dims := k.OutputDims()
	cat := k.Category()
	best := -1
	bestDist := math.Inf(1)
	for i, r := range db.records {
		if kernels.Categorize(r.Op) != cat || len(r.Dims) != len(dims) {
			continue
		}
		d := 0.0
		for j := range dims {
			d += sqDiffLog(float64(dims[j]), float64(r.Dims[j]))
		}
		d += sqDiffLog(float64(g.SMs), float64(r.SMs))
		d += sqDiffLog(g.L2CacheMB, r.L2MB)
		d += sqDiffLog(g.PeakFLOPS, r.PeakTF)
		d += sqDiffLog(g.MemoryBWGBs, r.MemBWGBs)
		if d < bestDist {
			bestDist, best = d, i
		}
	}
	if best < 0 {
		return Tile{}, false
	}
	return Tile{Dims: append([]int(nil), db.records[best].Tile...)}, true
}

func sqDiffLog(a, b float64) float64 {
	d := math.Log1p(a) - math.Log1p(b)
	return d * d
}
