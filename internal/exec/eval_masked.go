package exec

import (
	"fmt"
	"slices"
	"sync/atomic"

	"fuseme/internal/dag"
	"fuseme/internal/matrix"
	"fuseme/internal/rt/spec"
)

// The compiled chain. A maximal run of member element-wise operators is not
// evaluated node by node: per output block it is compiled into one expression
// (matrix.Chain) and applied once, writing one output buffer strip by strip —
// on the masked (outer-fusion) path, as passes over the driver's values buffer
// (matrix.MaskedChain) — with the values, representations and flop charges of
// one kernel per node.

// chain compiles the element-wise region rooted at one node for one output
// block. Every node of the region has the root's shape.
type chain struct {
	*matrix.Chain
	ev     *evaluator
	root   *dag.Node
	bi, bj int
	to     dest // where the result goes, and the first product it is stored into
	owned  bool // that product was built
}

// evalChain computes block (bi, bj) of the element-wise node n into a block
// for to: the chain's first fresh product (Chain.Owned), built for to, or one
// taken for it.
func (ev *evaluator) evalChain(n *dag.Node, bi, bj int, to dest) matrix.Mat {
	rows, cols := ev.blockDims(n, bi, bj)
	c := &chain{Chain: &matrix.Chain{Rows: rows, Cols: cols}, ev: ev, root: n, bi: bi, bj: bj, to: to}
	if to != toHeap {
		c.Alloc = func(rows, cols int) *matrix.Dense { return ev.newBlock(rows, cols, to) }
	}
	out := c.Materialise(ev.pool, c.node(n))
	ev.task.AddFlops(c.Flops)
	return out
}

// operand returns the value of operand n of the region: compiled in place
// when n continues the region, an evaluated block otherwise — an input, a
// multiplication, a transpose, the masked multiply, a node the task retains,
// or a vector operand of another shape.
func (c *chain) operand(n *dag.Node) matrix.Value {
	ev := c.ev
	if ev.pc.member(n) && (n.Op == dag.OpUnary || n.Op == dag.OpBinary) &&
		n.Rows == c.root.Rows && n.Cols == c.root.Cols && !ev.shouldMemo(n) &&
		(ev.pc.mask == nil || n != ev.pc.mask.Mul) {
		return c.node(n)
	}
	oi, oj := operandCoords(n, c.bi, c.bj)
	// What the chain reads lives for the output block, unless the result is
	// held: the chain may hand an operand out as its result.
	to := toBlock
	if c.to == toHeld {
		to = toHeld
	}
	if n.Op == dag.OpMatMul && !ev.shouldMemo(n) && !ev.memo[ev.memoKey(n.ID, oi, oj)].held {
		// A fresh accumulator nobody else holds. The first full one is where
		// the result is stored.
		if !c.owned {
			to = c.to
		}
		blk := ev.evalTo(n, oi, oj, to)
		if d, ok := blk.(*matrix.Dense); ok && d.Rows == c.Rows && d.Cols == c.Cols {
			c.owned = true
		}
		return c.Owned(blk)
	}
	return c.Leaf(ev.evalTo(n, oi, oj, to))
}

// node compiles the member element-wise node n.
func (c *chain) node(n *dag.Node) matrix.Value {
	if n.Op == dag.OpUnary {
		u, _ := matrix.UnaryFunc(n.Func)
		return c.Unary(u, matrix.UnaryFlops(n.Func), c.operand(n.Inputs[0]))
	}
	a, b := n.Inputs[0], n.Inputs[1]
	switch {
	case b.IsScalarShaped() && !a.IsScalarShaped():
		return c.Scalar(n.BinOp, c.operand(a), c.ev.scalarValue(b), false)
	case a.IsScalarShaped() && !b.IsScalarShaped():
		return c.Scalar(n.BinOp, c.operand(b), c.ev.scalarValue(a), true)
	}
	return c.Binary(n.BinOp, c.operand(a), c.operand(b))
}

// Masked (outer-fusion) evaluation: when a sparse driver X element-wise
// multiplies a chain that reaches the main multiplication, every node on the
// chain — and crucially the multiplication itself — is evaluated only at the
// non-zero positions of X's block (Section 2.1, "sparsity exploitation"):
// one SDDMM into a values buffer with the driver's pattern, then the chain as
// in-place passes over that buffer (matrix.MaskedChain), which becomes the
// output block.

// evalMaskedMul evaluates block (bi, bj) of the outer-fusion b(*) node:
// driver .* inner, with exactly the driver's pattern (values may be zero).
func (ev *evaluator) evalMaskedMul(bi, bj int) matrix.Mat {
	var passes matrix.MaskedChain
	var pattern *matrix.CSR
	var vals []float64
	mm := ev.pc.plan.MainMM
	if ev.pinned {
		// Stage two: the aggregated partials are pinned; the first pass samples them.
		pattern, vals = ev.driverPattern(bi, bj)
		passes.Sample(ev.memo[ev.memoKey(mm.ID, bi, bj)].blk)
	} else {
		pattern, vals = ev.maskedMM(bi, bj)
	}
	if pattern == nil {
		return nil // 0 .* anything == 0
	}
	flops := ev.maskedPasses(&passes, ev.pc.mask.Inner, bi, bj)
	ev.task.AddFlops(int64(len(vals)) * (flops + 1)) // the path, and the driver multiply
	passes.Run(ev.pool, pattern, vals)
	return pattern.WithValues(vals)
}

// maskedPasses compiles the path from n down to the main multiplication into
// passes, innermost operator first, and returns the flops the path is charged
// per driver non-zero. Operands off the path are evaluated as blocks, in path
// order, and read at the pattern; a nil block contributes zeros.
func (ev *evaluator) maskedPasses(passes *matrix.MaskedChain, n *dag.Node, bi, bj int) int64 {
	switch {
	case n == ev.pc.plan.MainMM:
		return 0
	case n.Op == dag.OpUnary:
		flops := ev.maskedPasses(passes, n.Inputs[0], bi, bj)
		u, _ := matrix.UnaryFunc(n.Func)
		passes.Unary(u)
		return flops + matrix.UnaryFlops(n.Func)
	case n.Op == dag.OpBinary:
		inner, other, otherOnLeft := n.Inputs[0], n.Inputs[1], false
		if !ev.reachesMM(inner) {
			inner, other, otherOnLeft = other, inner, true
		}
		flops := ev.maskedPasses(passes, inner, bi, bj)
		if other.IsScalarShaped() {
			passes.Scalar(n.BinOp, ev.scalarValue(other), otherOnLeft)
		} else {
			oi, oj := operandCoords(other, bi, bj)
			passes.Block(n.BinOp, ev.evalBlock(other, oi, oj), otherOnLeft)
		}
		return flops + n.BinOp.Flops()
	}
	// Transposes or nested multiplications on a masked path are rejected by
	// FindOuterMask; reaching here is a planner bug.
	ev.fail(fmt.Errorf("exec: unsupported %s on masked path", n.Label()))
	return 0
}

// driverPattern returns the driver pattern of block (bi, bj) and a zeroed,
// task-owned values buffer for it. A nil pattern is an all-zero driver block.
func (ev *evaluator) driverPattern(bi, bj int) (*matrix.CSR, []float64) {
	driver := ev.evalBlock(ev.pc.mask.Driver, bi, bj)
	if driver == nil {
		return nil, nil
	}
	pattern := matrix.ToCSR(driver)
	return pattern, make([]float64, len(pattern.Col))
}

// Super-tiles. A task visits the blocks of a masked plan in super-tiles
// (visit): matrix.SuperTileCols column blocks of one block row, whose right
// operand blocks fill half of the L2, group by group and, within a group,
// block row by block row, so the group's right operand blocks stay in the
// L2 while the left operand's blocks and the driver's stream past. The SDDMM
// of a whole super-tile is one kernel call per k block
// (matrix.MaskedMatMulGroupAccWith), which walks row i of every block in
// turn; maskedMM runs it when the first block of the super-tile is asked for
// and hands each block's values out once.

// superTile is the super-tile a task visits: block row bi, column blocks
// [lo, hi) of the main multiplication's plane.
type superTile struct {
	bi, lo, hi int
	done       bool        // its SDDMM ran
	blocks     []tileBlock // by column block, from lo
}

// tileBlock is one block of a super-tile: its driver pattern (nil: an
// all-zero driver block) and the values the SDDMM summed into, until
// maskedMM hands them out.
type tileBlock struct {
	pattern *matrix.CSR
	vals    []float64
	taken   bool
}

// enter makes blocks (bi, lo..hi-1) the super-tile, its SDDMM not yet run.
func (t *superTile) enter(bi, lo, hi int) {
	t.bi, t.lo, t.hi, t.done = bi, lo, hi, false
	t.blocks = slices.Grow(t.blocks[:0], hi-lo)[:hi-lo]
	clear(t.blocks)
}

// superTileCols is how many column blocks a super-tile of the task spans: 1
// unless the plan runs the masked SDDMM here (not in a fuse task, which
// samples pinned partials), else what the right operand's blocks over the
// task's k range allow (matrix.SuperTileCols), or the test hook's width.
func (ev *evaluator) superTileCols() int {
	if ev.pc.mask == nil || ev.pinned {
		return 1
	}
	if g := superTileHook.Load(); g > 0 {
		return int(g)
	}
	bs := ev.blockSize
	k := min(ev.kHi*bs, ev.pc.plan.MainMM.Inputs[0].Cols) - ev.kLo*bs
	return matrix.SuperTileCols(bs, k)
}

// superTileHook, when positive, is the super-tile width in column blocks in
// place of the L2 budget's; tests set it to compare super-tiles with blocks
// visited one by one. Zero outside tests.
var superTileHook atomic.Int64

// visit calls fn for every block (bi, bj) of block rows ri and column blocks
// rj of the main multiplication's plane, in super-tiles: column group by
// column group, block row by block row within one. rowMajor keeps row-major
// order instead — block row by block row, super-tile by super-tile — for an
// output whose task-local aggregate would fold its blocks in another order
// (a sum, min or max over all blocks; a row or column sum folds each of its
// partial blocks in the same order either way).
func (ev *evaluator) visit(ri, rj spec.Span, rowMajor bool, fn func(bi, bj int)) {
	g := ev.superTileCols()
	tile := func(bi, lo int) {
		hi := min(lo+g, rj.Hi)
		ev.tile.enter(bi, lo, hi)
		for bj := lo; bj < hi; bj++ {
			fn(bi, bj)
		}
	}
	if rowMajor {
		for bi := ri.Lo; bi < ri.Hi; bi++ {
			for lo := rj.Lo; lo < rj.Hi; lo += g {
				tile(bi, lo)
			}
		}
	} else {
		for lo := rj.Lo; lo < rj.Hi; lo += g {
			for bi := ri.Lo; bi < ri.Hi; bi++ {
				tile(bi, lo)
			}
		}
	}
	ev.tile.enter(0, 0, 0)
}

// maskedMM returns the driver pattern of block (bi, bj) and the main
// multiplication restricted to it, summed over the task's k range into one
// task-owned buffer. A nil pattern is an all-zero driver block. A block
// outside the super-tile being visited, or asked for again, is a super-tile
// of its own.
func (ev *evaluator) maskedMM(bi, bj int) (*matrix.CSR, []float64) {
	t := &ev.tile
	if bi != t.bi || bj < t.lo || bj >= t.hi || t.blocks[bj-t.lo].taken {
		t.enter(bi, bj, bj+1)
	}
	if !t.done {
		ev.sddmm(t)
	}
	b := &t.blocks[bj-t.lo]
	pattern, vals := b.pattern, b.vals
	*b = tileBlock{taken: true}
	return pattern, vals
}

// sddmm runs the super-tile's SDDMM: the driver pattern of each block and a
// zeroed values buffer for it, then, per k block, one kernel call over the
// blocks whose operands are not all-zero.
func (ev *evaluator) sddmm(t *superTile) {
	t.done = true
	some := false
	for j := range t.blocks {
		b := &t.blocks[j]
		b.pattern, b.vals = ev.driverPattern(t.bi, t.lo+j)
		some = some || b.pattern != nil
	}
	if !some {
		return
	}
	mm := ev.pc.plan.MainMM
	left, right := mm.Inputs[0], mm.Inputs[1]
	folded := ev.pc.role(right.ID)&roleFolded != 0
	for bk := ev.kLo; bk < ev.kHi; bk++ {
		la := ev.evalBlock(left, t.bi, bk)
		terms := ev.terms[:0]
		for j := range t.blocks {
			b := &t.blocks[j]
			if b.pattern == nil {
				continue
			}
			// The SDDMM takes dot(A[i,:], Bt[j,:]), its right operand
			// transposed: under a member t(B) that is B's own row-major
			// block, read where it lies; any other right block is
			// transposed once per output block.
			var bt matrix.Mat
			if folded {
				bt = ev.transposedChild(right, bk, t.lo+j)
			} else {
				bt = ev.evalBlock(right, bk, t.lo+j)
			}
			if la == nil || bt == nil {
				continue
			}
			if !folded {
				bt = ev.transpose(bt, toBlock)
			}
			_, inner := la.Dims()
			ev.task.AddFlops(matrix.MaskedMatMulFlops(b.pattern, inner))
			terms = append(terms, matrix.MaskedTerm{Mask: b.pattern, Acc: b.vals, Bt: bt})
		}
		if len(terms) > 0 {
			matrix.MaskedMatMulGroupAccWith(ev.pool, la, terms)
		}
		clear(terms)
		ev.terms = terms[:0]
	}
}
