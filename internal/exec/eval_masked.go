package exec

import (
	"fmt"

	"fuseme/internal/dag"
	"fuseme/internal/matrix"
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
}

// evalChain computes block (bi, bj) of the element-wise node n.
func (ev *evaluator) evalChain(n *dag.Node, bi, bj int) matrix.Mat {
	rows, cols := ev.blockDims(n, bi, bj)
	c := &chain{Chain: &matrix.Chain{Rows: rows, Cols: cols}, ev: ev, root: n, bi: bi, bj: bj}
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
	if n.Op == dag.OpMatMul && !ev.shouldMemo(n) && !ev.memo[ev.memoKey(n.ID, oi, oj)].held {
		return c.Owned(ev.evalBlock(n, oi, oj)) // a fresh accumulator nobody else holds
	}
	return c.Leaf(ev.evalBlock(n, oi, oj))
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

// maskedMM returns the driver pattern of block (bi, bj) and the main
// multiplication restricted to it, summed over the task's k-range into one
// task-owned buffer. A nil pattern is an all-zero driver block.
func (ev *evaluator) maskedMM(bi, bj int) (*matrix.CSR, []float64) {
	pattern, vals := ev.driverPattern(bi, bj)
	if pattern == nil {
		return nil, nil
	}
	mm := ev.pc.plan.MainMM
	left, right := mm.Inputs[0], mm.Inputs[1]
	folded := ev.pc.role(right.ID)&roleFolded != 0
	for bk := ev.kLo; bk < ev.kHi; bk++ {
		// The SDDMM takes dot(A[i,:], Bt[j,:]), its right operand transposed:
		// under a member t(B) that is B's own row-major block, read where it
		// lies; any other right block is transposed once per output block.
		la := ev.evalBlock(left, bi, bk)
		var bt matrix.Mat
		if folded {
			bt = ev.transposedChild(right, bk, bj)
		} else {
			bt = ev.evalBlock(right, bk, bj)
		}
		if la == nil || bt == nil {
			continue
		}
		if !folded {
			bt = matrix.TransposeWith(ev.pool, bt)
		}
		_, inner := la.Dims()
		ev.task.AddFlops(matrix.MaskedMatMulFlops(pattern, inner))
		matrix.MaskedMatMulAccWith(ev.pool, pattern, vals, la, bt)
	}
	return pattern, vals
}
