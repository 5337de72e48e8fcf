package tile

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"neusight/internal/gpu"
	"neusight/internal/kernels"
)

// Record is one profiled tile observation: which tile the library chose for
// a kernel shape on a GPU, keyed by the features NeuSight may legitimately
// use at prediction time.
type Record struct {
	Op       kernels.Op `json:"op"`
	Dims     []int      `json:"dims"` // kernel output dims
	SMs      int        `json:"sms"`
	L2MB     float64    `json:"l2_mb"`
	PeakTF   float64    `json:"peak_tflops"`
	MemBWGBs float64    `json:"mem_bw_gbs"`
	Tile     []int      `json:"tile"`
}

// DB stores profiled tile records and answers nearest-match queries. All
// methods are safe for concurrent use: Add may interleave freely with
// Lookup/LookupOrSelect.
//
// Records are indexed as they enter the database (Add, LoadDB): grouped by
// (predictor category, output rank), with each record's log-space features
// precomputed. A lookup therefore walks only the records it could match and
// takes no logarithms beyond its own query's.
type DB struct {
	mu      sync.RWMutex
	records []Record
	groups  map[groupKey]*group

	// gen counts Adds. Atomic rather than mu-guarded: Generation() sits on
	// the serving layer's cache-key path, where a lock shared with Add
	// would serialize every cache hit.
	gen atomic.Uint64
}

// groupKey selects the records a query may match: the paper matches on
// kernel name first, and distances are only defined between equal ranks.
type groupKey struct {
	cat  kernels.Category
	rank int
}

// group is the index of one (category, rank): record i of the group has
// its log1p features — output dims, then SMs, L2, peak FLOPS and memory
// bandwidth — at feats[i*stride:(i+1)*stride], stride = rank+numGPUFeatures,
// and its position in DB.records at idx[i]. Records stay in insertion
// order, so the first of equally near records still wins.
type group struct {
	feats []float64
	idx   []int32
}

// numGPUFeatures is the number of device features after the output dims.
const numGPUFeatures = 4

// maxRank bounds the output rank of any kernel (BMM's three dims), so query
// features fit a stack buffer.
const maxRank = 3

// Query is the comparable identity of a (kernel, GPU) prediction query.
// Every cache along the serving path — the serve layer's prediction LRU,
// its in-flight table and its trace recorder — keys on it, or the layers
// silently disagree about what "identical request" means. The kernel's
// typed Key carries every field a forecast reads; GPU specs are registry
// entries uniquely identified by name.
type Query struct {
	Kernel kernels.Key
	GPU    string
}

// QueryOf returns the identity of the query for k on g.
func QueryOf(k kernels.Kernel, g gpu.Spec) Query {
	return Query{Kernel: k.Key(), GPU: g.Name}
}

// QueryKey renders a (kernel, GPU) query for display: the kernel's label
// and the GPU name. Labels drop fields that change a forecast, so caches
// key on Query instead.
func QueryKey(k kernels.Kernel, g gpu.Spec) string {
	return k.Label() + "@" + g.Name
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{} }

// Add records the tile observed for kernel k on device g and bumps the
// generation, since the new record may now be a nearer match.
func (db *DB) Add(k kernels.Kernel, g gpu.Spec, t Tile) {
	db.mu.Lock()
	db.records = append(db.records, Record{
		Op: k.Op, Dims: append([]int(nil), k.OutputDims()...),
		SMs: g.SMs, L2MB: g.L2CacheMB, PeakTF: g.PeakFLOPS, MemBWGBs: g.MemoryBWGBs,
		Tile: append([]int(nil), t.Dims...),
	})
	db.index(len(db.records) - 1)
	db.mu.Unlock()
	db.gen.Add(1)
}

// index adds records[i] to its group. The caller holds mu for writing.
func (db *DB) index(i int) {
	r := &db.records[i]
	key := groupKey{cat: kernels.Categorize(r.Op), rank: len(r.Dims)}
	grp := db.groups[key]
	if grp == nil {
		if db.groups == nil {
			db.groups = make(map[groupKey]*group)
		}
		grp = &group{}
		db.groups[key] = grp
	}
	grp.feats = appendFeatures(grp.feats, r.Dims, float64(r.SMs), r.L2MB, r.PeakTF, r.MemBWGBs)
	grp.idx = append(grp.idx, int32(i))
}

// appendFeatures appends the log-space distance features of one record or
// query: log1p of each output dim, then of SMs, L2, peak FLOPS and memory
// bandwidth.
func appendFeatures(dst []float64, dims []int, sms, l2, peak, bw float64) []float64 {
	for _, d := range dims {
		dst = append(dst, math.Log1p(float64(d)))
	}
	return append(dst, math.Log1p(sms), math.Log1p(l2), math.Log1p(peak), math.Log1p(bw))
}

// Generation reports how many times the record set has changed. Callers
// that cache results derived from LookupOrSelect (the predictor folds it
// into its state generation, which serve cache keys carry) compare
// generations to notice when a new record may have changed the nearest
// match.
func (db *DB) Generation() uint64 {
	return db.gen.Load()
}

// Len reports the number of stored records.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.records)
}

// Lookup returns the tile of the nearest recorded kernel by log-space
// distance over (output dims, GPU features), restricted to the same
// predictor category (the paper matches on kernel name first). The
// distance is the sum of squared feature differences in feature order, and
// ties go to the earliest record. The boolean is false when the database
// holds no record of that category with the same output rank.
func (db *DB) Lookup(k kernels.Kernel, g gpu.Spec) (Tile, bool) {
	dims := k.OutputDims()
	var buf [maxRank + numGPUFeatures]float64
	q := appendFeatures(buf[:0], dims, float64(g.SMs), g.L2CacheMB, g.PeakFLOPS, g.MemoryBWGBs)

	db.mu.RLock()
	defer db.mu.RUnlock()
	grp := db.groups[groupKey{cat: k.Category(), rank: len(dims)}]
	if grp == nil {
		return Tile{}, false
	}
	stride := len(q)
	best := -1
	bestDist := math.Inf(1)
	for i := range grp.idx {
		f := grp.feats[i*stride : (i+1)*stride]
		d := 0.0
		for j, qj := range q {
			x := qj - f[j]
			d += x * x
		}
		if d < bestDist {
			bestDist, best = d, i
		}
	}
	if best < 0 {
		return Tile{}, false
	}
	return Tile{Dims: append([]int(nil), db.records[grp.idx[best]].Tile...)}, true
}

// LookupOrSelect resolves the tile for k on g from profiled data, falling
// back to the library heuristic when the database has no usable record.
func (db *DB) LookupOrSelect(k kernels.Kernel, g gpu.Spec) Tile {
	if t, ok := db.Lookup(k, g); ok {
		return t
	}
	return Select(k, g)
}

// Save writes the database as JSON to path.
func (db *DB) Save(path string) error {
	db.mu.RLock()
	data, err := json.MarshalIndent(db.records, "", " ")
	db.mu.RUnlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadDB reads a database previously written by Save. Every record is
// validated before it is indexed: a record with no output dims, a dim or
// tile entry below 1, a tile whose rank differs from its dims, or a
// non-positive or non-finite GPU feature would otherwise yield NaN
// distances or a tile that panics NumTiles at the first forecast.
func LoadDB(path string) (*DB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []Record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, err
	}
	db := &DB{records: recs}
	for i := range recs {
		if err := recs[i].validate(); err != nil {
			return nil, fmt.Errorf("tile: %s: record %d: %w", path, i, err)
		}
		db.index(i)
	}
	return db, nil
}

// validate reports why r cannot be indexed, or nil.
func (r *Record) validate() error {
	if len(r.Dims) == 0 {
		return errors.New("no output dims")
	}
	if len(r.Tile) != len(r.Dims) {
		return fmt.Errorf("tile rank %d differs from output rank %d", len(r.Tile), len(r.Dims))
	}
	for j := range r.Dims {
		if r.Dims[j] < 1 || r.Tile[j] < 1 {
			return fmt.Errorf("dim %d: output %d, tile %d: want both >= 1", j, r.Dims[j], r.Tile[j])
		}
	}
	if r.SMs < 1 {
		return fmt.Errorf("sms %d: want >= 1", r.SMs)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"l2_mb", r.L2MB}, {"peak_tflops", r.PeakTF}, {"mem_bw_gbs", r.MemBWGBs}} {
		if !(f.v > 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("%s %v: want positive and finite", f.name, f.v)
		}
	}
	return nil
}
