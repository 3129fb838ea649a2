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
//   - Plan visibility: an entry carries the generation of every stage that
//     inserted it, and a stage hits it only when one of those stages is an
//     ancestor of it in its query's plan or belongs to an earlier query
//     (Scope). Tasks of one stage race to populate the cache, and stages of
//     one query that do not depend on each other run at the same time, but
//     no stage observes an insertion it does not depend on — so per-stage
//     hit counts are deterministic whatever the scheduling order.
package blockcache

import (
	"container/list"
	"slices"
	"sync"
	"sync/atomic"

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
	gens  []uint64 // generations of the stages that inserted the entry
}

// Scope is a stage's place in the visibility order: the generation its
// insertions carry, and which inserting generations it may hit. Generations
// are drawn per query (Scopes), so every stage of an earlier query has one
// below a later query's Floor.
type Scope struct {
	Gen   uint64   // the generation the stage's insertions carry
	Floor uint64   // the first generation of the stage's query: every one below is visible
	Sees  []uint64 // the generations of the stage's ancestors in its query, visible too
}

// sees reports whether an entry inserted at generation g is visible to s.
func (s *Scope) sees(g uint64) bool { return g < s.Floor || slices.Contains(s.Sees, g) }

// genSeq is the process-wide generation counter Scopes draws from.
var genSeq atomic.Uint64

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

// Scopes reserves the generations of one query of len(ancestors) stages —
// consecutive ones, the first of which is the query's Floor: every
// generation drawn before it belongs to an earlier query — and returns each
// stage's scope: stage i's generation is Floor+i, and it sees the stages
// ancestors[i] names by index — every stage it depends on, not only the ones
// it reads directly.
func Scopes(ancestors [][]int) []Scope {
	n := uint64(len(ancestors))
	floor := genSeq.Add(n) - n + 1
	out := make([]Scope, len(ancestors))
	for i, anc := range ancestors {
		sees := make([]uint64, len(anc))
		for j, a := range anc {
			sees[j] = floor + uint64(a)
		}
		out[i] = Scope{Gen: floor + uint64(i), Floor: floor, Sees: sees}
	}
	return out
}

// Get returns the cached block for k if a stage visible to s inserted it
// (Scope). A nil block is a valid cached value (an all-zero
// block), so the boolean carries the hit/miss outcome. Hits refresh LRU
// recency; misses are not counted here (the caller counts a miss only when
// it actually fetched something) — Get only counts hits.
func (c *Cache) Get(k Key, s Scope) (matrix.Mat, bool) {
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
	if !slices.ContainsFunc(e.gens, s.sees) {
		// Inserted only by stages s does not depend on — a concurrent task
		// of the same stage, a stage running beside it, a later query:
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
// The entry carries s.Gen. Re-putting an existing key refreshes its recency
// and adds s.Gen to the entry's generations, unless an earlier query's stage
// inserted it already (every stage s.Gen could be visible to sees that one
// too), and never double-charges bytes.
func (c *Cache) Put(k Key, blk matrix.Mat, bytes int64, s Scope) (evicted int) {
	if c == nil || c.budget <= 0 || bytes > c.budget || bytes < 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		// Same key means same content (epochs are unique). The entry stays
		// visible to whoever saw it and becomes visible to s's dependents:
		// which of two unrelated stages inserted it first must not matter.
		e := el.Value.(*entry)
		e.blk = blk
		if !slices.Contains(e.gens, s.Gen) && slices.Min(e.gens) >= s.Floor {
			e.gens = append(e.gens, s.Gen)
		}
		c.lru.MoveToFront(el)
		return 0
	}
	for ; c.bytes+bytes > c.budget; evicted++ {
		c.remove(c.lru.Back())
		c.evictions++
	}
	el := c.lru.PushFront(&entry{key: k, blk: blk, bytes: bytes, gens: []uint64{s.Gen}})
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
