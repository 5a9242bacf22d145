package core

import (
	"container/list"
	"encoding/binary"
	"sync"

	"ppm/internal/codes"
)

// DefaultPlanCacheSize is the plan-cache bound a Decoder starts with.
// A rebuild workload sees a handful of distinct failure signatures (one
// per dead-disk pattern plus a few latent-sector variants), so a small
// LRU holds the entire working set; the bound only matters for
// adversarial scenario churn.
const DefaultPlanCacheSize = 64

// planCache is an LRU of built plans keyed by canonicalised failure
// pattern + strategy. Plans are immutable after BuildPlan, so one
// cached plan may execute on any number of goroutines concurrently;
// the cache itself is mutex-guarded and safe for concurrent Decode
// calls. Lookups with a byte key avoid allocating on the hit path.
type planCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element
	lru      list.List // Front is most recently used; values are *planEntry
	hits     int64
	misses   int64
}

type planEntry struct {
	key  string
	plan *Plan
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		capacity: capacity,
		entries:  make(map[string]*list.Element, capacity),
	}
}

// planKey canonicalises a failure pattern + strategy into a byte key:
// uvarints of the strategy, the erasure count and each faulty sector.
// Scenario.Faulty is sorted (codes.NewScenario and the generators
// guarantee it), so equal patterns render equal keys, and the count
// prefix keeps the key unambiguous when callers append more uvarints.
// Sectors below 128 take one byte each, so the lookup keys of
// multi-disk patterns stay in the caller's stack buffer.
func planKey(buf []byte, sc codes.Scenario, strategy Strategy) []byte {
	buf = binary.AppendUvarint(buf, uint64(strategy))
	buf = binary.AppendUvarint(buf, uint64(len(sc.Faulty)))
	for _, f := range sc.Faulty {
		buf = binary.AppendUvarint(buf, uint64(f))
	}
	return buf
}

// get returns the cached plan for the key, or nil.
func (c *planCache) get(key []byte) *Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if elem, ok := c.entries[string(key)]; ok {
		c.lru.MoveToFront(elem)
		c.hits++
		return elem.Value.(*planEntry).plan
	}
	c.misses++
	return nil
}

// put stores a freshly built plan, evicting the least recently used
// entry when full.
func (c *planCache) put(key []byte, plan *Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if elem, ok := c.entries[string(key)]; ok {
		// A concurrent miss built the same plan; keep the newer one.
		elem.Value.(*planEntry).plan = plan
		c.lru.MoveToFront(elem)
		return
	}
	for c.lru.Len() >= c.capacity {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*planEntry).key)
	}
	k := string(key)
	c.entries[k] = c.lru.PushFront(&planEntry{key: k, plan: plan})
}

// stats returns the hit/miss counters. Misses count lookups that did
// not find a plan — i.e. the number of plans Decode had to build.
func (c *planCache) stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
