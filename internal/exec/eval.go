package exec

import (
	"errors"
	"fmt"
	"slices"

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
	pc        *planCtx // the plan evaluated, with its mask and retained members
	src       source   // external input (and pinned-partial) blocks
	task      *cluster.Task
	pool      *parallel.Pool // intra-task kernel threads; nil = serial
	kLo, kHi  int            // main multiplication k-block range
	blockSize int

	memo      memoTable
	pinned    bool                // the task pinned the main multiplication's aggregated partials (a fuse task)
	accT      *matrix.Dense       // scratch: evalMatMul's transposed accumulator, in the arena
	arena     *taskArena          // where the blocks the task builds and does not emit live
	tile      superTile           // the masked SDDMM's super-tile being visited (visit, maskedMM)
	terms     []matrix.MaskedTerm // scratch: a super-tile's kernel call
	colocated []int               // inputs co-partitioned with the output: no fetch cost
	trace     *cluster.TaskTrace  // per-task sub-spans; nil when tracing is off
}

// dest is where a block the evaluator builds goes, by how long it is read.
type dest uint8

const (
	toBlock dest = iota // read while one output block is evaluated: the arena's block region
	toHeld              // held across the task's output blocks (a retained member's): the held region
	toHeap              // emitted as it is: a fresh block, the only kind a task puts on the heap
)

// newBlock returns a rows x cols dense block for to, its values the
// caller's to write.
func (ev *evaluator) newBlock(rows, cols int, to dest) *matrix.Dense {
	switch to {
	case toHeld:
		return ev.arena.held.dense(rows, cols)
	case toHeap:
		return matrix.NewDense(rows, cols)
	}
	return ev.arena.block.dense(rows, cols)
}

// memoTable is what a task holds of the blocks it met: one entry per (node,
// block), keyed by the one word memoKey packs them into.
type memoTable map[uint64]memoEntry

// memoEntry is the task's state of one block of one node.
type memoEntry struct {
	blk     matrix.Mat    // the block, when held; nil is an all-zero block
	leftT   *matrix.Dense // its retained, charged transpose as a dense left operand (evalMatMul), held in the arena
	held    bool          // blk is memoised, pinned or fetched
	fetched bool          // the block was fetched and metered (or broadcast)
	charged bool          // a retained transpose's memory: charged once, built or folded
}

// A memo key packs (node ID, block row, block column) into one word: the
// node in the top memoNodeBits, each coordinate in memoCoordBits below it.
// Anything wider fails the task with errMemoKeyRange rather than alias
// another block.
const (
	memoCoordBits = 20
	memoNodeBits  = 64 - 2*memoCoordBits
)

var errMemoKeyRange = errors.New("exec: node or block coordinate too large for a memo key")

// memoKey returns the memo key of block (bi, bj) of node id.
func (ev *evaluator) memoKey(id, bi, bj int) uint64 {
	if uint(id) >= 1<<memoNodeBits || uint(bi) >= 1<<memoCoordBits || uint(bj) >= 1<<memoCoordBits {
		ev.fail(fmt.Errorf("%w: node %d block (%d,%d)", errMemoKeyRange, id, bi, bj))
	}
	return uint64(id)<<(2*memoCoordBits) | uint64(bi)<<memoCoordBits | uint64(bj)
}

func newEvaluator(pc *planCtx, task *cluster.Task, src source, blockSize, kLo, kHi int) *evaluator {
	return &evaluator{
		pc:        pc,
		src:       src,
		task:      task,
		pool:      task.Pool(),
		kLo:       kLo,
		kHi:       kHi,
		blockSize: blockSize,
		memo:      memoTable{},
		trace:     task.Trace(),
	}
}

// reachesMM reports whether the member subtree rooted at n contains the main
// multiplication.
func (ev *evaluator) reachesMM(n *dag.Node) bool {
	if n == ev.pc.plan.MainMM {
		return true
	}
	if !ev.pc.member(n) {
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
// within the task: external inputs always, member nodes when their role is
// retained; never other O-space intermediates, which stream through one
// compiled chain (the fused, no-materialisation property).
func (ev *evaluator) shouldMemo(n *dag.Node) bool {
	r := ev.pc.role(n.ID)
	return r&roleMember == 0 || r&roleRetained != 0
}

// evalBlock computes block (bi, bj) of node n for the output block being
// evaluated: evalTo, the block not emitted. A nil return is an all-zero
// block.
func (ev *evaluator) evalBlock(n *dag.Node, bi, bj int) matrix.Mat {
	return ev.evalTo(n, bi, bj, toBlock)
}

// evalTo computes block (bi, bj) of node n; a dense block it builds goes to
// to, or, for a retained member, to the held region unless to is the heap.
// Only a retained member's block, or a pinned partial of the main
// multiplication, can be held already: the memo is not asked for another
// member's, and an input's is fetchExternal's to find.
func (ev *evaluator) evalTo(n *dag.Node, bi, bj int, to dest) matrix.Mat {
	if !ev.pc.member(n) {
		return ev.fetchExternal(n, bi, bj)
	}
	retained := ev.pc.role(n.ID)&roleRetained != 0
	var key uint64
	if retained || ev.pinned && n == ev.pc.plan.MainMM {
		key = ev.memoKey(n.ID, bi, bj)
		if e := ev.memo[key]; e.held {
			return e.blk
		}
	}
	if retained && to == toBlock {
		to = toHeld
	}
	blk := ev.computeBlock(n, bi, bj, to)
	if retained {
		e := ev.memo[key] // a retained transpose's entry holds its charge already
		e.blk, e.held = blk, true
		ev.memo[key] = e
		if blk != nil && n.Op != dag.OpTranspose { // transposedChild charged it
			ev.task.GrowMem(blk.SizeBytes())
		}
	}
	return blk
}

// computeBlock computes block (bi, bj) of the member n, a dense block it
// builds for to. A transpose built here is charged what building it moves
// (matrix.TransposeFlops): every time for a streamed node, once per task for
// a retained one, whose block evalTo holds.
func (ev *evaluator) computeBlock(n *dag.Node, bi, bj int, to dest) matrix.Mat {
	switch n.Op {
	case dag.OpUnary, dag.OpBinary:
		if ev.pc.mask != nil && n == ev.pc.mask.Mul {
			return ev.evalMaskedMul(bi, bj)
		}
		return ev.evalChain(n, bi, bj, to)
	case dag.OpTranspose:
		child := ev.transposedChild(n, bi, bj)
		if child == nil {
			return nil
		}
		ev.task.AddFlops(matrix.TransposeFlops(child))
		return ev.transpose(child, to)
	case dag.OpMatMul:
		return ev.evalMatMul(n, bi, bj, to)
	}
	ev.fail(fmt.Errorf("exec: operator %s cannot appear inside a fused kernel", n.Label()))
	return nil
}

// transpose returns t(m), a dense one built into a block for to.
func (ev *evaluator) transpose(m matrix.Mat, to dest) matrix.Mat {
	if d, ok := m.(*matrix.Dense); ok {
		return matrix.TransposeInto(ev.pool, ev.newBlock(d.Cols, d.Rows, to), d)
	}
	return matrix.TransposeWith(ev.pool, m)
}

// transposedChild returns the block c whose transpose is block (bi, bj) of
// the transpose node n, and charges a retained n's block to task memory once
// per task, built or not. It charges no flops: a kernel that reads n in place
// (a folded n, Plan.Folded) moves nothing, and computeBlock charges the build
// of any other.
func (ev *evaluator) transposedChild(n *dag.Node, bi, bj int) matrix.Mat {
	c := ev.evalBlock(n.Inputs[0], bj, bi)
	if c == nil || !ev.shouldMemo(n) {
		return c
	}
	key := ev.memoKey(n.ID, bi, bj)
	if e := ev.memo[key]; !e.charged {
		e.charged = true
		ev.memo[key] = e
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
// block comes from the task's source — the coordinator's bindings when
// running in-process, or a network pull on a remote worker — and is retained
// in the memo so remote tasks move each block at most once. The block of an
// input that is not a leaf (an earlier operator's result) is charged to task
// memory once more, as held, like a retained member's.
func (ev *evaluator) fetchExternal(n *dag.Node, bi, bj int) matrix.Mat {
	if n.Op == dag.OpScalar {
		return matrix.NewDenseData(1, 1, []float64{n.Scalar})
	}
	key := ev.memoKey(n.ID, bi, bj)
	e := ev.memo[key]
	if e.fetched {
		return e.blk
	}
	blk, err := ev.src.fetch(spec.BlockRef{Kind: spec.RefInput, Node: n.ID, BI: bi, BJ: bj})
	if err != nil {
		ev.fail(fmt.Errorf("exec: input %d (%s) block (%d,%d): %w", n.ID, n.Label(), bi, bj, err))
	}
	if slices.Contains(ev.colocated, n.ID) {
		// Co-partitioned input: the task already owns the block; it
		// occupies memory but moves no bytes.
		if blk != nil {
			ev.task.GrowMem(blk.SizeBytes())
		}
	} else {
		ev.task.FetchBlock(blk) // nil-safe: zero blocks cost nothing
	}
	if blk != nil && !n.IsLeaf() {
		ev.task.GrowMem(blk.SizeBytes())
	}
	e.blk, e.held, e.fetched = blk, true, true
	ev.memo[key] = e
	return blk
}

// appendExternal appends to refs the external block that evaluating block
// (bi, bj) of n fetches — n's own when n is an input outside the plan, its
// child's under a member transpose — unless the task holds that block
// already or refs names it.
func (ev *evaluator) appendExternal(refs []spec.BlockRef, n *dag.Node, bi, bj int) []spec.BlockRef {
	if n.Op == dag.OpTranspose && ev.pc.member(n) {
		n, bi, bj = n.Inputs[0], bj, bi
	}
	if ev.pc.member(n) || n.Op == dag.OpScalar || ev.memo[ev.memoKey(n.ID, bi, bj)].fetched {
		return refs
	}
	ref := spec.BlockRef{Kind: spec.RefInput, Node: n.ID, BI: bi, BJ: bj}
	if slices.Contains(refs, ref) {
		return refs
	}
	return append(refs, ref)
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
// accumulator, a block for to: the sum's first product is stored into it
// (matrix.MatMulInto), the others added. The main mm sums only the task's
// k-range (partial when R > 1); nested multiplications use their full inner
// dimension.
//
// A dense left block against a CSR right block (GNMF's t(V) %*% X) runs the
// transposed kernel — the dense row held in registers, added into the row of
// each non-zero — accumulating in a cleared scratch the task reuses across
// output blocks and transposes once per sum into the block for to.
// The kernel reads the left block's transpose: the operand under a member
// t(A) node as it is (t(A)'s blocks are never built), else a copy the task
// keeps, and is charged for, across its output blocks. The scratch and the
// copies lie in the task arena. A dense pair under a
// member t(A) runs the dense kernel on A's block through swapped strides
// (the AutoEncoder's t(W) %*% D); only a CSR block under t(A) against a
// dense one still has its transpose built.
//
// A sum of CSR x CSR products is stored by its own density, like a single
// product; the other pairs give a dense block.
//
// Before the k loop, a source that reads ahead is told the external blocks
// the loop fetches, in the order it fetches them (appendExternal).
func (ev *evaluator) evalMatMul(n *dag.Node, bi, bj int, to dest) matrix.Mat {
	left, right := n.Inputs[0], n.Inputs[1]
	lo, hi := 0, (left.Cols+ev.blockSize-1)/ev.blockSize
	if n == ev.pc.plan.MainMM {
		lo, hi = ev.kLo, ev.kHi
	}
	rows, cols := ev.blockDims(n, bi, bj)
	folded := ev.pc.role(left.ID)&roleFolded != 0
	if ra := ev.src.ahead; ra != nil {
		refs := ra.refs[:0]
		for bk := lo; bk < hi; bk++ {
			refs = ev.appendExternal(refs, left, bi, bk)
			refs = ev.appendExternal(refs, right, bk, bj)
		}
		if ra.refs = refs; len(refs) > 0 {
			ra.hint(refs)
		}
	}
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
				key := ev.memoKey(left.ID, bi, bk)
				e := ev.memo[key]
				if e.leftT == nil { // built once per task, held against its memory
					e.leftT = matrix.TransposeInto(ev.pool, ev.arena.held.dense(d.Cols, d.Rows), d)
					ev.memo[key] = e
					ev.task.GrowMem(d.SizeBytes())
				}
				lt = e.leftT
			}
			if a, ok := lt.(*matrix.Dense); ok {
				if accT == nil {
					// The task's scratch — taken, not shared: an operand may be a product itself.
					accT, ev.accT = ev.accT, nil
					if accT == nil || accT.Rows != cols || accT.Cols != rows {
						accT = ev.arena.held.dense(cols, rows)
					}
					clear(accT.Data)
				}
				ev.task.AddFlops(2 * int64(rows) * int64(b.NNZ())) // one row update per output row and non-zero, as MatMulFlops
				matrix.MatMulTransAccWith(ev.pool, accT, a, b)
				continue
			}
		}
		at, denseL := lt.(*matrix.Dense)
		if b, ok := rb.(*matrix.Dense); ok && denseL {
			ev.task.AddFlops(2 * int64(rows) * int64(at.Rows) * int64(cols))
			if acc == nil {
				acc = matrix.MatMulTNInto(ev.pool, ev.newBlock(rows, cols, to), at, b)
			} else {
				matrix.MatMulTNAccWith(ev.pool, acc, at, b)
			}
			sparse = false
			continue
		}
		if la == nil {
			la = ev.evalBlock(left, bi, bk) // no kernel reads a CSR block transposed: build t(A)'s block
		}
		ev.task.AddFlops(matrix.MatMulFlops(la, rb))
		if acc == nil {
			acc = matrix.MatMulInto(ev.pool, ev.newBlock(rows, cols, to), la, rb)
		} else {
			matrix.MatMulAccWith(ev.pool, acc, la, rb)
		}
		sparse = sparse && la.IsSparse() && rb.IsSparse()
	}
	switch {
	case accT != nil:
		ev.accT = accT // hand the scratch back
		if acc == nil {
			return matrix.TransposeInto(ev.pool, ev.newBlock(rows, cols, to), accT)
		}
		return matrix.AddAcc(acc, matrix.TransposeInto(ev.pool, ev.newBlock(rows, cols, toBlock), accT))
	case acc == nil:
		return nil
	case sparse:
		return matrix.MaybeCompress(acc, matrix.SparseResultThreshold)
	}
	return acc
}
