package blockcache

import (
	"math/rand"
	"slices"
	"testing"

	"fuseme/internal/matrix"
)

func key(node int, epoch uint64, bi, bj int) Key {
	return Key{Node: node, Epoch: epoch, BI: bi, BJ: bj}
}

// q is the scope of a stage that is a query of its own at generation gen:
// it sees every entry an earlier generation inserted.
func q(gen uint64) Scope { return Scope{Gen: gen, Floor: gen} }

// holds reports whether k is resident, without touching recency or counters.
func (c *Cache) holds(k Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[k]
	return ok
}

func TestGenerationVisibility(t *testing.T) {
	c := New(1 << 20)
	k := key(1, 7, 0, 0)
	blk := matrix.NewDense(2, 2)
	if c.Put(k, blk, 32, q(5)); !c.holds(k) {
		t.Fatal("Put rejected a fitting entry")
	}
	// Same generation (or earlier): the entry must be invisible.
	if _, hit := c.Get(k, q(5)); hit {
		t.Error("entry inserted at gen 5 visible to gen 5")
	}
	if _, hit := c.Get(k, q(4)); hit {
		t.Error("entry inserted at gen 5 visible to gen 4")
	}
	// Strictly later generation: hit.
	got, hit := c.Get(k, q(6))
	if !hit {
		t.Fatal("entry inserted at gen 5 not visible to gen 6")
	}
	if got != blk {
		t.Error("hit returned a different block")
	}
	if s := c.Snapshot(); s.Hits != 1 {
		t.Errorf("hits = %d, want 1", s.Hits)
	}
}

// TestAncestorVisibility: within one query a stage hits only what its
// ancestors inserted, whichever of two unrelated stages inserted a block
// first; a later query hits everything.
func TestAncestorVisibility(t *testing.T) {
	const floor = 10
	a := Scope{Gen: floor, Floor: floor}                            // a producer
	b := Scope{Gen: floor + 1, Floor: floor}                        // runs beside a
	c := Scope{Gen: floor + 2, Floor: floor, Sees: []uint64{a.Gen}} // a's consumer
	later := q(floor + 3)
	for _, order := range [][]Scope{{a, b}, {b, a}} {
		cache := New(1 << 20)
		k := key(1, 7, 0, 0)
		for _, s := range order {
			cache.Put(k, nil, 32, s)
		}
		if _, hit := cache.Get(k, c); !hit {
			t.Errorf("put by %d then %d: the consumer of %d missed", order[0].Gen, order[1].Gen, a.Gen)
		}
		if _, hit := cache.Get(k, b); hit {
			t.Error("a stage hit its own insertion")
		}
	}
	cache := New(1 << 20)
	k := key(1, 7, 0, 0)
	cache.Put(k, nil, 32, b)
	if _, hit := cache.Get(k, c); hit {
		t.Errorf("an entry only stage %d inserted was visible to %d, which does not depend on it", b.Gen, c.Gen)
	}
	if _, hit := cache.Get(k, later); !hit {
		t.Error("a later query missed an earlier query's entry")
	}
}

// TestScopesNameAncestors: one query's stages get consecutive generations
// from its Floor and see their ancestors' by index; the next query's Floor
// is above every one of them.
func TestScopesNameAncestors(t *testing.T) {
	a := Scopes([][]int{nil, {0}, {0, 1}})
	f := a[0].Floor
	for i, s := range a {
		if s.Gen != f+uint64(i) || s.Floor != f {
			t.Fatalf("stage %d scope %+v, want generation %d and floor %d", i, s, f+uint64(i), f)
		}
	}
	if len(a[0].Sees) != 0 || !slices.Equal(a[1].Sees, []uint64{f}) || !slices.Equal(a[2].Sees, []uint64{f, f + 1}) {
		t.Fatalf("sees %v %v %v, want none, [%d], [%d %d]", a[0].Sees, a[1].Sees, a[2].Sees, f, f, f+1)
	}
	if b := Scopes([][]int{nil}); b[0].Floor <= a[2].Gen {
		t.Fatalf("next query's floor %d is not above %d", b[0].Floor, a[2].Gen)
	}
}

func TestRePutKeepsOriginalGeneration(t *testing.T) {
	c := New(1 << 20)
	k := key(2, 9, 1, 1)
	c.Put(k, nil, 100, q(3))
	// A later re-put must not double-charge or advance the visibility gen.
	if n := c.Put(k, nil, 100, q(8)); n != 0 {
		t.Errorf("re-Put evicted %d entries", n)
	}
	if rb := c.ResidentBytes(); rb != 100 {
		t.Errorf("resident = %d after re-Put, want 100", rb)
	}
	if _, hit := c.Get(k, q(4)); !hit {
		t.Error("re-Put at gen 8 hid the original gen-3 entry from gen 4")
	}
}

func TestOversizedEntryNotCached(t *testing.T) {
	c := New(64)
	if c.Put(key(0, 1, 0, 0), nil, 65, q(1)); c.holds(key(0, 1, 0, 0)) {
		t.Error("entry larger than the whole budget was cached")
	}
	if c.Len() != 0 || c.ResidentBytes() != 0 {
		t.Error("oversized Put left residue")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(300)
	a, b, d := key(0, 1, 0, 0), key(0, 1, 0, 1), key(0, 1, 0, 2)
	c.Put(a, nil, 100, q(1))
	c.Put(b, nil, 100, q(1))
	c.Put(d, nil, 100, q(1))
	// Touch a so b becomes least recently used.
	c.Get(a, q(2))
	if n := c.Put(key(0, 1, 0, 3), nil, 100, q(2)); n != 1 || c.holds(b) {
		t.Errorf("evicted %d entries (b resident: %t), want b alone", n, c.holds(b))
	}
	if _, hit := c.Get(a, q(3)); !hit {
		t.Error("recently used entry was evicted")
	}
}

func TestInvalidateStale(t *testing.T) {
	c := New(1 << 20)
	c.Put(key(1, 10, 0, 0), nil, 10, q(1))
	c.Put(key(1, 10, 0, 1), nil, 10, q(1))
	c.Put(key(1, 22, 0, 0), nil, 10, q(2)) // current epoch
	c.Put(key(2, 10, 0, 0), nil, 10, q(1)) // different node, same stale epoch
	c.InvalidateStale(1, 22)
	if c.Len() != 2 || c.holds(key(1, 10, 0, 0)) || c.holds(key(1, 10, 0, 1)) {
		t.Fatalf("%d entries left, want node 1's two epoch-10 entries dropped", c.Len())
	}
	if _, hit := c.Get(key(1, 22, 0, 0), q(3)); !hit {
		t.Error("current-epoch entry was invalidated")
	}
	if _, hit := c.Get(key(2, 10, 0, 0), q(3)); !hit {
		t.Error("other node's entry was invalidated")
	}
	if s := c.Snapshot(); s.Evictions != 0 {
		t.Errorf("invalidation counted as %d evictions", s.Evictions)
	}
	if rb := c.ResidentBytes(); rb != 20 {
		t.Errorf("resident = %d after invalidation, want 20", rb)
	}
	// A node re-bound to an older matrix than one it has cached keeps the
	// newer epoch's entries: only older epochs go.
	c.Put(key(1, 30, 0, 0), nil, 10, q(3))
	if c.InvalidateStale(1, 22); !c.holds(key(1, 30, 0, 0)) || !c.holds(key(1, 22, 0, 0)) {
		t.Error("an invalidation dropped an entry of its own or a newer epoch")
	}
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache
	if _, hit := c.Get(key(0, 1, 0, 0), q(5)); hit {
		t.Error("nil cache hit")
	}
	if n := c.Put(key(0, 1, 0, 0), nil, 8, q(1)); n != 0 {
		t.Errorf("nil cache evicted %d entries", n)
	}
	c.CountMiss()
	c.InvalidateStale(0, 0)
	if c.Len() != 0 || c.ResidentBytes() != 0 {
		t.Error("nil cache reported contents")
	}
	if s := c.Snapshot(); s != (Stats{}) {
		t.Error("nil cache reported stats")
	}
}

// TestBudgetInvariantRandomized is the LRU property test: under arbitrary
// randomized insert/get/invalidate sequences and budgets, resident bytes
// never exceed the budget, the resident-byte counter always equals the sum
// of the live entries' sizes, the LRU list and the index hold the same
// entries, and every eviction Put reports is counted.
func TestBudgetInvariantRandomized(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		budget := int64(rng.Intn(1000) + 1)
		c := New(budget)
		var evicted int64
		for op := 0; op < 400; op++ {
			k := key(rng.Intn(4), uint64(rng.Intn(6)+1), rng.Intn(3), rng.Intn(3))
			switch rng.Intn(4) {
			case 0, 1:
				evicted += int64(c.Put(k, nil, int64(rng.Intn(300)), q(uint64(op))))
			case 2:
				c.Get(k, q(uint64(op)))
			case 3:
				if rng.Intn(10) == 0 {
					c.InvalidateStale(rng.Intn(4), uint64(rng.Intn(6)+1))
				}
			}
			var want int64
			for el := c.lru.Front(); el != nil; el = el.Next() {
				e := el.Value.(*entry)
				if c.items[e.key] != el {
					t.Fatalf("trial %d op %d: LRU entry %v not indexed", trial, op, e.key)
				}
				want += e.bytes
			}
			got := c.ResidentBytes()
			if got != want {
				t.Fatalf("trial %d op %d: resident = %d, entry sum = %d", trial, op, got, want)
			}
			if got > budget {
				t.Fatalf("trial %d op %d: resident %d exceeds budget %d", trial, op, got, budget)
			}
			if c.Len() != c.lru.Len() {
				t.Fatalf("trial %d op %d: len = %d, LRU holds %d", trial, op, c.Len(), c.lru.Len())
			}
			if s := c.Snapshot(); s.Evictions != evicted {
				t.Fatalf("trial %d op %d: %d evictions counted, Put reported %d", trial, op, s.Evictions, evicted)
			}
		}
	}
}
