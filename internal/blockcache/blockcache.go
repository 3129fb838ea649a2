// Package blockcache implements the worker-resident block cache for
// loop-invariant inputs: a byte-budgeted LRU keyed by (node, epoch, block
// coordinate). Both runtimes share this one implementation — the simulated
// cluster keeps one Cache per simulated node, the TCP worker keeps one per
// process — so eviction order, budget enforcement and hit accounting conform
// by construction.
//
// Correctness rests on two properties:
//
//   - Epoch keying: block.Matrix epochs are globally unique and bumped on
//     every mutation, so a stale entry can never match a fresh fetch key.
//     Invalidation (InvalidateStale) is therefore a space optimisation, not
//     a correctness requirement. Each task bound to a cache applies it itself,
//     for the epochs its stage names, before its first lookup; epochs
//     increase — a matrix made later has the larger one — and invalidation
//     drops older epochs only, so it never drops what a concurrent task of
//     the same stage has just cached.
//
//   - Generation visibility: entries inserted during stage generation g only
//     become hit-visible to stages with a generation > g. Tasks of one stage
//     race to populate the cache, but none of them can observe another's
//     insertions, which makes per-stage hit counts deterministic regardless
//     of scheduling order.
package blockcache

import (
	"container/list"
	"sync"

	"fuseme/internal/matrix"
)

// Key addresses one cached block: the DAG node it belongs to, the content
// epoch of the bound matrix, and the block-grid coordinate.
type Key struct {
	Node  int
	Epoch uint64
	BI    int
	BJ    int
}

type entry struct {
	key   Key
	blk   matrix.Mat
	bytes int64
	gen   uint64 // stage generation the entry was inserted in
}

// Stats is a snapshot of a cache's counters.
type Stats struct {
	Hits, Misses, Evictions int64
	ResidentBytes           int64
}

// Cache is a mutex-guarded LRU over block contents with a byte budget.
// A budget <= 0 disables the cache entirely (every Get misses, Put is a
// no-op), so a zero-configured runtime behaves exactly as before.
type Cache struct {
	mu     sync.Mutex
	budget int64
	lru    *list.List // front = most recently used; values are *entry
	items  map[Key]*list.Element
	bytes  int64

	hits, misses, evictions int64
}

// New returns a cache with the given byte budget.
func New(budget int64) *Cache {
	return &Cache{budget: budget, lru: list.New(), items: make(map[Key]*list.Element)}
}

// Get returns the cached block for k if it was inserted in a generation
// strictly before gen. A nil block is a valid cached value (an all-zero
// block), so the boolean carries the hit/miss outcome. Hits refresh LRU
// recency; misses are not counted here (the caller counts a miss only when
// it actually fetched something) — Get only counts hits.
func (c *Cache) Get(k Key, gen uint64) (matrix.Mat, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	e := el.Value.(*entry)
	if e.gen >= gen {
		// Inserted by a concurrent task of the same (or a later) stage:
		// invisible, so every task of a stage sees the same cache state.
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return e.blk, true
}

// Put inserts blk under k, charging bytes against the budget and evicting
// least-recently-used entries as needed. It returns how many entries it
// evicted to make room. Entries larger than the whole budget are not cached.
// Re-putting an existing key refreshes its recency but keeps its generation,
// and never double-charges bytes.
func (c *Cache) Put(k Key, blk matrix.Mat, bytes int64, gen uint64) (evicted int) {
	if c == nil || c.budget <= 0 || bytes > c.budget || bytes < 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		// Same key means same content (epochs are unique); keep the original
		// generation so the first insertion wins visibility.
		el.Value.(*entry).blk = blk
		c.lru.MoveToFront(el)
		return 0
	}
	for ; c.bytes+bytes > c.budget; evicted++ {
		c.remove(c.lru.Back())
		c.evictions++
	}
	el := c.lru.PushFront(&entry{key: k, blk: blk, bytes: bytes, gen: gen})
	c.items[k] = el
	c.bytes += bytes
	return evicted
}

// remove takes el out of the cache. Caller holds mu.
func (c *Cache) remove(el *list.Element) {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.bytes
}

// CountMiss records one miss. The caller invokes it after a Get miss that
// led to a real fetch, keeping the miss count comparable across backends
// (both only count fetches that shipped an existing block).
func (c *Cache) CountMiss() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
}

// InvalidateStale drops every entry of the given node whose epoch is older
// than epoch. An entry with a newer epoch belongs to a newer matrix the node
// was bound to before: it stays until the LRU takes it. Dropped entries do
// not count as evictions (they are invalidations, not budget pressure).
func (c *Cache) InvalidateStale(node int, epoch uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if k := el.Value.(*entry).key; k.Node == node && k.Epoch < epoch {
			c.remove(el)
		}
		el = next
	}
}

// ResidentBytes returns the bytes currently charged against the budget.
func (c *Cache) ResidentBytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Snapshot returns the cache's counters and resident bytes.
func (c *Cache) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, ResidentBytes: c.bytes}
}
