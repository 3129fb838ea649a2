// Package plancache caches compiled physical plans keyed by a canonical,
// name-free encoding of the query DAG. Plan generation (CFG exploration plus
// optimisation) is the expensive part of a query on a warm cluster, and under
// serving traffic the same logical query arrives over and over with different
// variable names and binding orders; the cache recognises those repeats and
// skips compilation entirely.
//
// Canonicalization erases everything that does not affect the plan: input
// and output variable names and the order outputs were declared. It keeps
// everything that does: operator structure, input dimensions and sparsity,
// and scalar literals. The caller appends an engine/cluster fingerprint to
// the key so plans compiled under different knobs never collide.
//
// A hit returns the cached physical plan together with rename maps from the
// cached graph's variable names to the caller's, so the plan executes
// against the caller's bindings with bit-identical results.
package plancache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"fuseme/internal/core"
	"fuseme/internal/dag"
)

// Canon is the canonical form of a query DAG: a name-free structural key
// plus the caller's input and output names in canonical order.
type Canon struct {
	Key     string   // canonical structure encoding; no variable names
	Inputs  []string // input names, in canonical (first-visit) order
	Outputs []string // output names, in canonical order
}

// Canonicalize computes the canonical form of g. Two graphs that differ only
// in variable names or output declaration order produce the same Key with
// their respective names aligned position-by-position in Inputs/Outputs;
// any change to dimensions, sparsity, operators or scalar literals changes
// the Key.
func Canonicalize(g *dag.Graph) Canon {
	// Phase 1: a bottom-up structural encoding per node, ignoring names.
	// Hash-consed graphs share subtrees, so memoize by node pointer; each
	// encoding is hashed to bound growth on deep graphs.
	enc := map[*dag.Node]string{}
	var encode func(n *dag.Node) string
	encode = func(n *dag.Node) string {
		if e, ok := enc[n]; ok {
			return e
		}
		parts := make([]string, 0, len(n.Inputs)+1)
		parts = append(parts, nodeSig(n))
		for _, in := range n.Inputs {
			parts = append(parts, encode(in))
		}
		sum := sha256.Sum256([]byte(strings.Join(parts, "|")))
		e := hex.EncodeToString(sum[:16])
		enc[n] = e
		return e
	}

	// Phase 2: order outputs by (encoding, name). The name tie-break keeps
	// the order deterministic; structurally tied outputs are isomorphic up
	// to input renaming, so either order yields a correct alignment.
	outs := g.Outputs()
	names := g.OutputNames()
	for _, name := range names {
		encode(outs[name])
	}
	sorted := append([]string(nil), names...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0; j-- {
			a, b := sorted[j-1], sorted[j]
			ka, kb := enc[outs[a]], enc[outs[b]]
			if ka < kb || (ka == kb && a <= b) {
				break
			}
			sorted[j-1], sorted[j] = b, a
		}
	}

	// Phase 3: assign canonical ids by DFS from the sorted outputs
	// (post-order, children in input order) and emit one line per node.
	ids := map[*dag.Node]int{}
	var lines []string
	var inputs []string
	var visit func(n *dag.Node) int
	visit = func(n *dag.Node) int {
		if id, ok := ids[n]; ok {
			return id
		}
		childIDs := make([]string, len(n.Inputs))
		for i, in := range n.Inputs {
			childIDs[i] = fmt.Sprintf("%d", visit(in))
		}
		id := len(lines)
		ids[n] = id
		lines = append(lines, nodeSig(n)+"("+strings.Join(childIDs, ",")+")")
		if n.Op == dag.OpInput {
			inputs = append(inputs, n.Name)
		}
		return id
	}
	outIDs := make([]string, len(sorted))
	for i, name := range sorted {
		outIDs[i] = fmt.Sprintf("%d", visit(outs[name]))
	}
	key := strings.Join(lines, "\n") + "\nout:" + strings.Join(outIDs, ",")
	return Canon{Key: key, Inputs: inputs, Outputs: sorted}
}

// nodeSig encodes one node's operator and local metadata, without names.
// Rows/cols/sparsity are derived for inner nodes but included anyway so the
// key is robust to inference changes.
func nodeSig(n *dag.Node) string {
	switch n.Op {
	case dag.OpInput:
		return fmt.Sprintf("in:%dx%d:%.17g", n.Rows, n.Cols, n.Sparsity)
	case dag.OpScalar:
		return fmt.Sprintf("sc:%.17g", n.Scalar)
	case dag.OpUnary:
		return fmt.Sprintf("u:%s:%dx%d:%.17g", n.Func, n.Rows, n.Cols, n.Sparsity)
	case dag.OpBinary:
		return fmt.Sprintf("b:%v:%dx%d:%.17g", n.BinOp, n.Rows, n.Cols, n.Sparsity)
	case dag.OpUnaryAgg:
		return fmt.Sprintf("a:%v:%dx%d", n.Agg, n.Rows, n.Cols)
	case dag.OpMatMul:
		return fmt.Sprintf("mm:%dx%d:%.17g", n.Rows, n.Cols, n.Sparsity)
	case dag.OpTranspose:
		return fmt.Sprintf("t:%dx%d", n.Rows, n.Cols)
	}
	return fmt.Sprintf("op%d", n.Op)
}

// Hit is a cache lookup result: the cached plan plus rename maps from the
// cached graph's variable names to the caller's.
type Hit struct {
	PP          *core.PhysPlan
	InputNames  map[string]string // plan-graph input name -> caller binding name
	OutputNames map[string]string // plan-graph output name -> caller output name
}

type entry struct {
	key     string
	pp      *core.PhysPlan
	inputs  []string // the cached graph's input names, canonical order
	outputs []string // the cached graph's output names, canonical order
}

// Cache is a concurrency-safe LRU plan cache. Get compiles each cold key once
// however many callers meet it at the same time.
type Cache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	order   *list.List         // front = most recently used
	flights map[string]*flight // keys being compiled under Get

	hits   atomic.Int64
	misses atomic.Int64
}

// flight is one compile in progress. e and err are set before done closes.
type flight struct {
	done chan struct{}
	e    *entry
	err  error
}

// DefaultMaxEntries bounds the cache when no explicit size is given.
const DefaultMaxEntries = 256

// New creates a plan cache holding at most maxEntries plans (<= 0 uses
// DefaultMaxEntries).
func New(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	return &Cache{max: maxEntries, entries: map[string]*list.Element{}, order: list.New(), flights: map[string]*flight{}}
}

// hit aligns the cached graph's names to canon's. Identical keys imply
// identical structure, so a length mismatch cannot happen; it reads as a miss
// rather than mis-binding inputs.
func (e *entry) hit(canon Canon) (Hit, bool) {
	if len(e.inputs) != len(canon.Inputs) || len(e.outputs) != len(canon.Outputs) {
		return Hit{}, false
	}
	h := Hit{
		PP:          e.pp,
		InputNames:  make(map[string]string, len(e.inputs)),
		OutputNames: make(map[string]string, len(e.outputs)),
	}
	for i, name := range e.inputs {
		h.InputNames[name] = canon.Inputs[i]
	}
	for i, name := range e.outputs {
		h.OutputNames[name] = canon.Outputs[i]
	}
	return h, true
}

// cached returns key's entry and marks it most recently used. c.mu is held.
func (c *Cache) cached(key string) *entry {
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry)
}

// Lookup returns the cached plan for key, with rename maps aligning the
// cached graph's names to canon's, and counts a hit or miss.
func (c *Cache) Lookup(key string, canon Canon) (Hit, bool) {
	c.mu.Lock()
	e := c.cached(key)
	c.mu.Unlock()
	if e != nil {
		if h, ok := e.hit(canon); ok {
			c.hits.Add(1)
			return h, true
		}
	}
	c.misses.Add(1)
	return Hit{}, false
}

// Get returns the plan for key: the cached one (hit is true, with Lookup's
// rename maps), or the one compile builds from the caller's own graph, which
// is then cached (hit is false, names need no mapping). Callers that meet a
// key while another is compiling it wait for that compile instead of starting
// their own and count as hits. A failed compile is not cached: its caller and
// everyone who waited on it get the error, and the next Get compiles again.
func (c *Cache) Get(key string, canon Canon, compile func() (*core.PhysPlan, error)) (h Hit, hit bool, err error) {
	c.mu.Lock()
	e, f := c.cached(key), c.flights[key]
	if e == nil && f == nil {
		f = &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()
		c.misses.Add(1)
		pp, err := c.fly(f, key, canon, compile)
		return Hit{PP: pp}, false, err
	}
	c.mu.Unlock()
	c.hits.Add(1) // a waiter counts when it joins, so Stats shows it waiting
	if e == nil {
		if <-f.done; f.err != nil {
			return Hit{}, false, f.err
		}
		e = f.e
	}
	if h, ok := e.hit(canon); ok {
		return h, true, nil
	}
	pp, err := compile()
	return Hit{PP: pp}, false, err
}

// fly runs the compile of flight f, caches its plan and releases the waiters
// — also when compile panics, with an error in place of the plan.
func (c *Cache) fly(f *flight, key string, canon Canon, compile func() (*core.PhysPlan, error)) (*core.PhysPlan, error) {
	f.err = fmt.Errorf("plancache: compiling the plan panicked")
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		close(f.done)
	}()
	pp, err := compile()
	if err == nil {
		f.e = c.insert(key, canon, pp)
	}
	f.err = err
	return pp, err
}

// Insert stores a compiled plan under key. A compiled plan carries its
// lowered stages and is read-only from then on, so concurrent executions
// share it as it is.
func (c *Cache) Insert(key string, canon Canon, pp *core.PhysPlan) { c.insert(key, canon, pp) }

func (c *Cache) insert(key string, canon Canon, pp *core.PhysPlan) *entry {
	e := &entry{
		key:     key,
		pp:      pp,
		inputs:  append([]string(nil), canon.Inputs...),
		outputs: append([]string(nil), canon.Outputs...),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return e
	}
	c.entries[key] = c.order.PushFront(e)
	for c.order.Len() > c.max {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*entry).key)
	}
	return e
}

// Stats returns hit/miss counters and the current entry count.
func (c *Cache) Stats() (hits, misses int64, entries int) {
	c.mu.Lock()
	n := c.order.Len()
	c.mu.Unlock()
	return c.hits.Load(), c.misses.Load(), n
}
