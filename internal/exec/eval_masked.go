package exec

import (
	"fmt"

	"fuseme/internal/dag"
	"fuseme/internal/matrix"
)

// The compiled chain. A maximal run of member element-wise operators is not
// evaluated node by node: per output block it is compiled into one expression
// (matrix.Chain) and applied once, writing one output buffer — strip by strip
// when dense, per driver non-zero on the masked (outer-fusion) path — with
// the values, representations and flop charges of one kernel per node.

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
	if ev.op.Plan.Contains(n) && (n.Op == dag.OpUnary || n.Op == dag.OpBinary) &&
		n.Rows == c.root.Rows && n.Cols == c.root.Cols && !ev.shouldMemo(n) &&
		(ev.mask == nil || n != ev.mask.Mul) {
		return c.node(n)
	}
	oi, oj := operandCoords(n, c.bi, c.bj)
	if _, pinned := ev.memo[memoKey{n.ID, oi, oj}]; n.Op == dag.OpMatMul && !pinned && !ev.shouldMemo(n) {
		return c.Owned(ev.evalBlock(n, oi, oj)) // a fresh accumulator nobody else holds
	}
	return c.Leaf(ev.evalBlock(n, oi, oj))
}

// node compiles the member element-wise node n.
func (c *chain) node(n *dag.Node) matrix.Value {
	if n.Op == dag.OpUnary {
		f, _ := matrix.UnaryFunc(n.Func)
		return c.Unary(f, matrix.UnaryFlops(n.Func), c.operand(n.Inputs[0]))
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
// one SDDMM into a values buffer with the driver's pattern, then one pass of
// the compiled chain over that buffer, which becomes the output block.

// evalMaskedMul evaluates block (bi, bj) of the outer-fusion b(*) node:
// driver .* inner, with exactly the driver's pattern (values may be zero).
func (ev *evaluator) evalMaskedMul(bi, bj int) matrix.Mat {
	pattern, vals := ev.maskedMM(bi, bj)
	if pattern == nil {
		return nil // 0 .* anything == 0
	}
	c := &chain{Chain: &matrix.Chain{Rows: pattern.Rows, Cols: pattern.Cols}, ev: ev, root: ev.mask.Mul, bi: bi, bj: bj}
	inner := c.masked(ev.mask.Inner, vals)
	ev.task.AddFlops(c.Flops + int64(len(vals))) // the path, and the driver multiply
	matrix.MaskedStore(ev.pool, pattern, vals, func(i, j, p int) float64 { return inner(i, j, p) * pattern.Val[p] })
	return pattern.WithValues(vals)
}

// masked compiles the path from n down to the main multiplication, whose
// masked values are vals; every step is charged, in c.Flops, once per driver
// non-zero. Operands off the path are evaluated as blocks and sampled at the
// pattern; a nil block contributes zeros.
func (c *chain) masked(n *dag.Node, vals []float64) matrix.Cell {
	ev := c.ev
	switch {
	case n == ev.op.Plan.MainMM:
		return func(_, _, p int) float64 { return vals[p] }
	case n.Op == dag.OpUnary:
		child := c.masked(n.Inputs[0], vals)
		f, _ := matrix.UnaryFunc(n.Func)
		c.Flops += int64(len(vals)) * matrix.UnaryFlops(n.Func)
		return func(i, j, p int) float64 { return f(child(i, j, p)) }
	case n.Op == dag.OpBinary:
		op := n.BinOp
		inner, other, innerOnLeft := n.Inputs[0], n.Inputs[1], true
		if !ev.reachesMM(inner) {
			inner, other, innerOnLeft = other, inner, false
		}
		in := c.masked(inner, vals)
		c.Flops += int64(len(vals)) * op.Flops()
		if other.IsScalarShaped() {
			f := matrix.ScalarFn(op, ev.scalarValue(other), !innerOnLeft)
			return func(i, j, p int) float64 { return f(in(i, j, p)) }
		}
		oi, oj := operandCoords(other, c.bi, c.bj)
		o := c.Leaf(ev.evalBlock(other, oi, oj)).Cell()
		if innerOnLeft {
			return func(i, j, p int) float64 { return op.Eval(in(i, j, p), o(i, j, p)) }
		}
		return func(i, j, p int) float64 { return op.Eval(o(i, j, p), in(i, j, p)) }
	}
	// Transposes or nested multiplications on a masked path are rejected by
	// FindOuterMask; reaching here is a planner bug.
	ev.fail(fmt.Errorf("exec: unsupported %s on masked path", n.Label()))
	return nil
}

// maskedMM returns the driver pattern of block (bi, bj) and the main
// multiplication restricted to it, summed over the task's k-range into one
// task-owned buffer. A nil pattern is an all-zero driver block.
func (ev *evaluator) maskedMM(bi, bj int) (*matrix.CSR, []float64) {
	driver := ev.evalBlock(ev.mask.Driver, bi, bj)
	if driver == nil {
		return nil, nil
	}
	pattern := matrix.ToCSR(driver)
	vals := make([]float64, len(pattern.Col))
	mm := ev.op.Plan.MainMM
	if blk, ok := ev.memo[memoKey{mm.ID, bi, bj}]; ok {
		// Stage two: the aggregated partials are pinned; sample them.
		c := matrix.Chain{Rows: pattern.Rows, Cols: pattern.Cols}
		matrix.MaskedStore(nil, pattern, vals, c.Leaf(blk).Cell())
		return pattern, vals
	}
	left, right := mm.Inputs[0], mm.Inputs[1]
	folded := right.Op == dag.OpTranspose && ev.op.Plan.Contains(right)
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
