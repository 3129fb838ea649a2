package exec

import (
	"fmt"
	"slices"

	"fuseme/internal/blockcache"
	"fuseme/internal/cluster"
	"fuseme/internal/dag"
	"fuseme/internal/matrix"
	"fuseme/internal/parallel"
	"fuseme/internal/rt/spec"
)

// execPanic wraps an error raised deep in the recursive evaluator; the task
// boundary recovers it and returns the error. Structural panics (nil
// dereferences, shape bugs) are not wrapped and propagate as real panics.
type execPanic struct{ err error }

// evaluator computes blocks of the fused sub-DAG for one task. It is not
// safe for concurrent use; every task builds its own.
type evaluator struct {
	pc        *planCtx    // the plan evaluated, with its mask and retained members
	src       blockSource // external input (and pinned-partial) blocks
	task      *cluster.Task
	pool      *parallel.Pool // intra-task kernel threads; nil = serial
	kLo, kHi  int            // main multiplication k-block range
	blockSize int

	memo      map[memoKey]matrix.Mat
	fetched   map[memoKey]bool
	charged   map[memoKey]bool          // retained transposes already charged, built or folded
	leftT     map[memoKey]*matrix.Dense // retained, charged transposes of dense left blocks (evalMatMul)
	accT      *matrix.Dense             // scratch: evalMatMul's transposed accumulator
	colocated []int                     // inputs co-partitioned with the output: no fetch cost
	trace     *cluster.TaskTrace        // per-task sub-spans; nil when tracing is off
	epochs    *spec.Stage               // the stage naming the bound inputs' content epochs: the cacheable ones
}

type memoKey struct {
	node   int
	bi, bj int
}

func newEvaluator(pc *planCtx, task *cluster.Task, src blockSource, blockSize, kLo, kHi int) *evaluator {
	return &evaluator{
		pc:        pc,
		src:       src,
		task:      task,
		pool:      task.Pool(),
		kLo:       kLo,
		kHi:       kHi,
		blockSize: blockSize,
		memo:      make(map[memoKey]matrix.Mat),
		fetched:   make(map[memoKey]bool),
		charged:   make(map[memoKey]bool),
		leftT:     make(map[memoKey]*matrix.Dense),
		trace:     task.Trace(),
	}
}

// reachesMM reports whether the member subtree rooted at n contains the main
// multiplication.
func (ev *evaluator) reachesMM(n *dag.Node) bool {
	if n == ev.pc.plan.MainMM {
		return true
	}
	if !ev.pc.plan.Contains(n) {
		return false
	}
	for _, in := range n.Inputs {
		if ev.reachesMM(in) {
			return true
		}
	}
	return false
}

// fail aborts the evaluation with err (recovered at the task boundary).
func (ev *evaluator) fail(err error) {
	panic(execPanic{err})
}

// blockDims returns the element dimensions of node n's block (bi, bj).
func (ev *evaluator) blockDims(n *dag.Node, bi, bj int) (rows, cols int) {
	bs := ev.blockSize
	rows = min(bs, n.Rows-bi*bs)
	cols = min(bs, n.Cols-bj*bs)
	if rows <= 0 || cols <= 0 {
		ev.fail(fmt.Errorf("exec: block (%d,%d) outside %dx%d node %s", bi, bj, n.Rows, n.Cols, n.Label()))
	}
	return rows, cols
}

// shouldMemo reports whether the node's block values are retained for reuse
// within the task: external inputs always, member nodes per the plan's
// memoNode; never other O-space intermediates, which stream through one
// compiled chain (the fused, no-materialisation property).
func (ev *evaluator) shouldMemo(n *dag.Node) bool {
	return !ev.pc.plan.Contains(n) || ev.pc.memoNode[n.ID]
}

// evalBlock computes block (bi, bj) of node n. A nil return is an all-zero
// block.
func (ev *evaluator) evalBlock(n *dag.Node, bi, bj int) matrix.Mat {
	key := memoKey{n.ID, bi, bj}
	if blk, ok := ev.memo[key]; ok {
		return blk
	}
	blk := ev.computeBlock(n, bi, bj)
	if ev.shouldMemo(n) && !n.IsLeaf() {
		// Leaves are memoised by fetchExternal itself.
		ev.memo[key] = blk
		memberT := n.Op == dag.OpTranspose && ev.pc.plan.Contains(n) // transposedChild charged it
		if blk != nil && !memberT {
			ev.task.GrowMem(blk.SizeBytes())
		}
	}
	return blk
}

func (ev *evaluator) computeBlock(n *dag.Node, bi, bj int) matrix.Mat {
	if !ev.pc.plan.Contains(n) {
		return ev.fetchExternal(n, bi, bj)
	}
	switch n.Op {
	case dag.OpUnary, dag.OpBinary:
		if ev.pc.mask != nil && n == ev.pc.mask.Mul {
			return ev.evalMaskedMul(bi, bj)
		}
		return ev.evalChain(n, bi, bj)
	case dag.OpTranspose:
		child := ev.transposedChild(n, bi, bj)
		if child == nil {
			return nil
		}
		return matrix.TransposeWith(ev.pool, child)
	case dag.OpMatMul:
		return ev.evalMatMul(n, bi, bj)
	}
	ev.fail(fmt.Errorf("exec: operator %s cannot appear inside a fused kernel", n.Label()))
	return nil
}

// transposedChild returns the block c whose transpose is block (bi, bj) of
// the transpose node n, and charges the transpose — flops, and task memory
// when n is retained — exactly as building it does: every time for a
// streamed node, once per task for a retained one. A transpose-aware kernel
// reads c directly, so the transposed block is never built.
func (ev *evaluator) transposedChild(n *dag.Node, bi, bj int) matrix.Mat {
	c := ev.evalBlock(n.Inputs[0], bj, bi)
	key := memoKey{n.ID, bi, bj}
	if c == nil || ev.charged[key] {
		return c
	}
	ev.task.AddFlops(int64(c.NNZ()))
	if ev.shouldMemo(n) {
		ev.charged[key] = true
		size := c.SizeBytes()
		if s, ok := c.(*matrix.CSR); ok {
			size += int64(s.Cols-s.Rows) * 8 // the transposed row-pointer array
		}
		ev.task.GrowMem(size)
	}
	return c
}

// fetchExternal meters and returns an input block, deduplicating fetches
// within the task (each distinct block is consolidated once per task). The
// block comes from the task's blockSource — the coordinator's bindings when
// running in-process, or a network pull on a remote worker — and is retained
// in the memo so remote tasks move each block at most once.
func (ev *evaluator) fetchExternal(n *dag.Node, bi, bj int) matrix.Mat {
	if n.Op == dag.OpScalar {
		return matrix.NewDenseData(1, 1, []float64{n.Scalar})
	}
	key := memoKey{n.ID, bi, bj}
	if ev.fetched[key] {
		if blk, ok := ev.memo[key]; ok {
			return blk
		}
	}
	// A task without a cache, or an input its stage names no epoch for,
	// takes the uncached fetch path exactly.
	cache, gen := ev.task.Cache()
	var ck blockcache.Key
	cacheable := false
	if cache != nil {
		if ep, ok := ev.epochs.EpochOf(n.ID); ok {
			ck = blockcache.Key{Node: n.ID, Epoch: ep, BI: bi, BJ: bj}
			cacheable = true
		}
	}
	if cacheable && !ev.fetched[key] {
		endCache := ev.trace.Begin("cache", "taskop")
		blk, hit := cache.Get(ck, gen)
		endCache()
		if hit {
			// Served from the node/worker-resident cache: no wire fetch,
			// but the block occupies task memory like any local read.
			// Colocated inputs never ship in the simulated model, so a hit
			// on one saves no consolidation bytes.
			ev.fetched[key] = true
			saved := blk.SizeBytes()
			if slices.Contains(ev.colocated, n.ID) {
				saved = 0
			}
			ev.task.CacheHit(blk.SizeBytes(), saved)
			ev.memo[key] = blk
			return blk
		}
	}
	blk, err := ev.src.fetch(spec.BlockRef{Kind: spec.RefInput, Node: n.ID, BI: bi, BJ: bj})
	if err != nil {
		ev.fail(fmt.Errorf("exec: input %d (%s) block (%d,%d): %w", n.ID, n.Label(), bi, bj, err))
	}
	if !ev.fetched[key] {
		ev.fetched[key] = true
		if slices.Contains(ev.colocated, n.ID) {
			// Co-partitioned input: the task already owns the block; it
			// occupies memory but moves no bytes.
			if blk != nil {
				ev.task.GrowMem(blk.SizeBytes())
			}
		} else {
			ev.task.FetchBlock(blk) // nil-safe: zero blocks cost nothing
		}
		if cacheable && blk != nil {
			// Only materialised blocks are cached (and counted as misses):
			// all-zero blocks cost nothing to refetch on either backend.
			ev.task.CacheMiss()
			ev.task.AddCacheEvictions(cache.Put(ck, blk, blk.SizeBytes(), gen))
		}
	}
	ev.memo[key] = blk
	return blk
}

// operandCoords maps the output block coordinate of an element-wise operator
// to the coordinate of an operand, which may be a scalar (1x1), row-vector or
// column-vector broadcast: a single row or column has only block 0.
func operandCoords(operand *dag.Node, bi, bj int) (int, int) {
	if operand.Rows == 1 {
		bi = 0
	}
	if operand.Cols == 1 {
		bj = 0
	}
	return bi, bj
}

// scalarValue resolves a scalar-shaped operand to its float value.
func (ev *evaluator) scalarValue(n *dag.Node) float64 {
	if n.Op == dag.OpScalar {
		return n.Scalar
	}
	blk := ev.evalBlock(n, 0, 0)
	if blk == nil {
		return 0
	}
	return blk.At(0, 0)
}

// evalMatMul computes one block of a multiplication into one task-owned
// accumulator. The main mm sums only the task's k-range (partial when
// R > 1); nested multiplications use their full inner dimension.
//
// A dense left block against a CSR right block (GNMF's t(V) %*% X) runs the
// transposed kernel — the dense row held in registers, added into the row of
// each non-zero — accumulating in a scratch the task reuses across output
// blocks and transposes once per sum.
// The kernel reads the left block's transpose: the operand under a member
// t(A) node as it is (t(A)'s blocks are never built), else a copy the task
// keeps, and is charged for, across its output blocks. A dense pair under a
// member t(A) runs the dense kernel on A's block through swapped strides
// (the AutoEncoder's t(W) %*% D); only a CSR block under t(A) against a
// dense one still has its transpose built.
//
// A sum of CSR x CSR products is stored by its own density, like a single
// product; the other pairs give a dense block.
func (ev *evaluator) evalMatMul(n *dag.Node, bi, bj int) matrix.Mat {
	left, right := n.Inputs[0], n.Inputs[1]
	lo, hi := 0, (left.Cols+ev.blockSize-1)/ev.blockSize
	if n == ev.pc.plan.MainMM {
		lo, hi = ev.kLo, ev.kHi
	}
	rows, cols := ev.blockDims(n, bi, bj)
	folded := left.Op == dag.OpTranspose && ev.pc.plan.Contains(left)
	var acc, accT *matrix.Dense
	sparse := true
	for bk := lo; bk < hi; bk++ {
		var la, lt matrix.Mat // the left block, or its transpose where that is what exists
		if folded {
			lt = ev.transposedChild(left, bi, bk)
		} else {
			la = ev.evalBlock(left, bi, bk)
		}
		rb := ev.evalBlock(right, bk, bj)
		if (la == nil && lt == nil) || rb == nil {
			continue
		}
		if b, ok := rb.(*matrix.CSR); ok {
			if d, ok := la.(*matrix.Dense); ok {
				key := memoKey{left.ID, bi, bk}
				if ev.leftT[key] == nil { // built once per task, held against its memory
					ev.leftT[key] = matrix.TransposeWith(ev.pool, d).(*matrix.Dense)
					ev.task.GrowMem(d.SizeBytes())
				}
				lt = ev.leftT[key]
			}
			if a, ok := lt.(*matrix.Dense); ok {
				if accT == nil {
					// The task's scratch — taken, not shared: an operand may be a product itself.
					accT, ev.accT = ev.accT, nil
					if accT == nil || accT.Rows != cols || accT.Cols != rows {
						accT = matrix.NewDense(cols, rows)
					}
					clear(accT.Data)
				}
				ev.task.AddFlops(2 * int64(rows) * int64(a.Rows) * int64(cols))
				matrix.MatMulTransAccWith(ev.pool, accT, a, b)
				continue
			}
		}
		at, denseL := lt.(*matrix.Dense)
		if b, ok := rb.(*matrix.Dense); ok && denseL {
			ev.task.AddFlops(2 * int64(rows) * int64(at.Rows) * int64(cols))
			acc = matrix.MatMulTNAccWith(ev.pool, acc, at, b)
			sparse = false
			continue
		}
		if la == nil {
			la = ev.evalBlock(left, bi, bk) // no kernel reads a CSR block transposed: build t(A)'s block
		}
		ev.task.AddFlops(matrix.MatMulFlops(la, rb))
		acc = matrix.MatMulAccWith(ev.pool, acc, la, rb) // a nil acc is the sum's first product: a fresh block
		sparse = sparse && la.IsSparse() && rb.IsSparse()
	}
	switch {
	case accT != nil:
		ev.accT = accT // hand the scratch back
		t := matrix.TransposeWith(ev.pool, accT)
		if acc == nil {
			return t
		}
		return matrix.AddAcc(acc, t)
	case acc == nil:
		return nil
	case sparse:
		return matrix.MaybeCompress(acc, matrix.SparseResultThreshold)
	}
	return acc
}
