package serve

import (
	"container/list"
	"sync"

	"neusight/internal/predict"
	"neusight/internal/tile"
)

// cacheKey is the tag a forecast is cached and coalesced under: the
// (kernel, GPU) query plus the engine state that answers it. epoch is the
// engine state's registration epoch (shard caches are shared across
// engines, and a replaced engine must be a distinct key space); gen is the
// engine's state generation, so a retrain makes every prior entry
// unreachable instead of serving it stale.
type cacheKey struct {
	query tile.Query
	epoch uint64
	gen   uint64
}

// lruCache is a thread-safe fixed-capacity LRU map from prediction key to
// structured forecast result. It is the serving layer's first line of defense: DNN
// graphs repeat identical kernels across layers and users repeat identical
// workload/GPU queries, so the hit rate on realistic traffic is high.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *lruEntry
	items map[cacheKey]*list.Element

	hits   uint64
	misses uint64
}

type lruEntry struct {
	key cacheKey
	val predict.Result
}

// newLRUCache returns a cache holding at most capacity entries. A capacity
// of zero or less disables caching (every Get misses, Put is a no-op).
func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap:   capacity,
		order: list.New(),
		items: make(map[cacheKey]*list.Element),
	}
}

// Get returns the cached value for key, marking it most recently used.
func (c *lruCache) Get(key cacheKey) (predict.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return predict.Result{}, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Put inserts or refreshes key, evicting the least recently used entry when
// the cache is full.
func (c *lruCache) Put(key cacheKey, val predict.Result) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.cap {
		oldest := c.order.Back()
		if oldest != nil {
			c.order.Remove(oldest)
			delete(c.items, oldest.Value.(*lruEntry).key)
		}
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, val: val})
}

// DropEpoch removes every entry cached for the engine state of the given
// epoch, returning how many were dropped. Rebalancing uses it to evict the
// cache slice of an unregistered engine from a shard cache shared across
// engines without disturbing the entries of engines still serving.
func (c *lruCache) DropEpoch(epoch uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*lruEntry); e.key.epoch == epoch {
			c.order.Remove(el)
			delete(c.items, e.key)
			dropped++
		}
		el = next
	}
	return dropped
}

// LenEpoch counts the resident entries of the engine state of the given
// epoch — the per-engine slice of a shard cache shared across engines.
func (c *lruCache) LenEpoch(epoch uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.order.Front(); el != nil; el = el.Next() {
		if el.Value.(*lruEntry).key.epoch == epoch {
			n++
		}
	}
	return n
}

// Flush removes every entry, preserving the hit/miss counters.
func (c *lruCache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.items = make(map[cacheKey]*list.Element)
}

// Len returns the current entry count.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Counters returns the cumulative hit and miss counts.
func (c *lruCache) Counters() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
