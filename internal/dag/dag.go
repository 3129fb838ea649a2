// Package dag implements the logical query plan of the engine: a directed
// acyclic graph whose leaves are input matrices (or scalars) and whose inner
// vertices are the five basic matrix operator types of the paper
// (Section 2.1): unary, binary, unary aggregation, binary aggregation
// (matrix multiplication) and reorganisation (transpose).
//
// The package also carries the metadata every planner and cost model needs:
// inferred shapes, estimated sparsity, estimated sizes and flop counts.
package dag

import (
	"fmt"
	"math"
	"slices"

	"fuseme/internal/matrix"
)

// Op is the operator type of a node.
type Op int

// Node operator types.
const (
	OpInput     Op = iota // leaf: a named input matrix
	OpScalar              // leaf: a scalar literal
	OpUnary               // element-wise unary function (log, sq, ...)
	OpBinary              // element-wise binary operator (+, *, ...)
	OpUnaryAgg            // aggregation (sum, rowSums, colSums, ...)
	OpMatMul              // binary aggregation: matrix multiplication
	OpTranspose           // reorganisation: transpose
)

// String returns a short name for the operator type.
func (o Op) String() string {
	switch o {
	case OpInput:
		return "input"
	case OpScalar:
		return "scalar"
	case OpUnary:
		return "u"
	case OpBinary:
		return "b"
	case OpUnaryAgg:
		return "ua"
	case OpMatMul:
		return "ba(x)"
	case OpTranspose:
		return "r(T)"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Node is a vertex in the query DAG.
type Node struct {
	ID     int
	Op     Op
	Name   string         // input name (OpInput) or assigned label
	Func   string         // unary function name (OpUnary)
	BinOp  matrix.BinOp   // element-wise operator (OpBinary)
	Agg    matrix.AggFunc // aggregation (OpUnaryAgg)
	Scalar float64        // literal value (OpScalar)
	Inputs []*Node

	// Inferred metadata.
	Rows, Cols int
	Sparsity   float64 // estimated fraction of non-zero elements in [0,1]

	consumers []*Node
}

// Consumers returns the nodes that take this node as input.
func (n *Node) Consumers() []*Node { return n.consumers }

// LinkConsumers records n as a consumer of each of its inputs. The Graph
// builder maintains consumer links automatically; this is needed when a
// sub-DAG is reconstructed outside the builder (for example from a shipped
// task descriptor), so fusion-plan queries see the original structure.
func (n *Node) LinkConsumers() {
	for _, in := range n.Inputs {
		in.consumers = append(in.consumers, n)
	}
}

// NumConsumers returns the out-degree of the node in the DAG.
func (n *Node) NumConsumers() int { return len(n.consumers) }

// IsLeaf reports whether the node is an input or scalar literal.
func (n *Node) IsLeaf() bool { return n.Op == OpInput || n.Op == OpScalar }

// IsScalarShaped reports whether the node's value is a 1x1 matrix or literal.
func (n *Node) IsScalarShaped() bool { return n.Rows == 1 && n.Cols == 1 }

// Label returns a human-readable operator label, e.g. "b(*)", "u(log)",
// "ba(x)", "ua(sum)", "r(T)", "X" or "3.5".
func (n *Node) Label() string {
	switch n.Op {
	case OpInput:
		return n.Name
	case OpScalar:
		return fmt.Sprintf("%g", n.Scalar)
	case OpUnary:
		return fmt.Sprintf("u(%s)", n.Func)
	case OpBinary:
		return fmt.Sprintf("b(%s)", n.BinOp)
	case OpUnaryAgg:
		return fmt.Sprintf("ua(%s)", n.Agg)
	case OpMatMul:
		return "ba(x)"
	case OpTranspose:
		return "r(T)"
	}
	return "?"
}

// Cells returns Rows*Cols as int64.
func (n *Node) Cells() int64 { return int64(n.Rows) * int64(n.Cols) }

// EstNNZ returns the estimated number of non-zeros.
func (n *Node) EstNNZ() int64 {
	return int64(math.Ceil(n.Sparsity * float64(n.Cells())))
}

// SparseStorageThreshold is the estimated density below which a node's
// output is assumed to be stored in sparse form for size estimation.
const SparseStorageThreshold = 0.25

// EstSizeBytes returns the estimated materialised size of the node's value,
// assuming CSR storage (16 B/entry) below SparseStorageThreshold and dense
// storage (8 B/cell) otherwise. This is the size() of the paper's Eq. 3-4.
func (n *Node) EstSizeBytes() int64 {
	if n.Op == OpScalar {
		return 8
	}
	if n.Sparsity < SparseStorageThreshold {
		return n.EstNNZ() * 16
	}
	return n.Cells() * 8
}

// EstFlops returns the estimated number of floating-point operations needed
// to compute this single operator (numOp() of the paper's Eq. 5).
func (n *Node) EstFlops() int64 {
	switch n.Op {
	case OpInput, OpScalar:
		return 0
	case OpUnary:
		return n.workCells() * matrix.UnaryFlops(n.Func)
	case OpBinary:
		return n.workCells() * n.BinOp.Flops()
	case OpUnaryAgg:
		return n.Inputs[0].workCells()
	case OpTranspose:
		return n.Inputs[0].EstNNZ()
	case OpMatMul:
		// Sparse-aware multiply-add count: every (i,k,j) voxel costs two
		// flops with probability sa*sb, which reduces to 2*nnz(a)*cols(b)
		// for a sparse left operand and 2*rows(a)*nnz(b) for a sparse right
		// operand — matching the skip-zero kernels in the matrix package.
		a, b := n.Inputs[0], n.Inputs[1]
		work := 2 * float64(a.Rows) * float64(a.Cols) * float64(b.Cols) * a.Sparsity * b.Sparsity
		return int64(math.Ceil(work))
	}
	return 0
}

// workCells estimates how many cells an element-wise operator touches:
// sparse outputs only touch their non-zeros.
func (n *Node) workCells() int64 {
	if n.Sparsity < SparseStorageThreshold {
		return n.EstNNZ()
	}
	return n.Cells()
}

// Graph is a query plan DAG under construction or compilation. Builder
// methods hash-cons nodes (common-subexpression elimination): constructing
// the same operator over the same inputs twice returns the original node,
// which therefore gains multiple consumers and becomes a materialisation
// point for the planners — exactly how t(V) behaves in the paper's GNMF
// example (Figure 10).
type Graph struct {
	nodes    []*Node
	outputs  map[string]*Node
	interned map[string]*Node
	nextID   int
}

// NewGraph returns an empty query DAG.
func NewGraph() *Graph {
	return &Graph{outputs: make(map[string]*Node), interned: make(map[string]*Node)}
}

// Nodes returns all nodes in creation order (which is a topological order,
// since builder methods only reference existing nodes).
func (g *Graph) Nodes() []*Node { return g.nodes }

// Outputs returns the named output map.
func (g *Graph) Outputs() map[string]*Node { return g.outputs }

// OutputNames returns the output names in sorted order.
func (g *Graph) OutputNames() []string {
	names := make([]string, 0, len(g.outputs))
	for n := range g.outputs {
		names = append(names, n)
	}
	sortStrings(names)
	return names
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func (g *Graph) add(n *Node) *Node {
	key := internKey(n)
	if exist, ok := g.interned[key]; ok {
		if n.Op == OpInput && (exist.Rows != n.Rows || exist.Cols != n.Cols || exist.Sparsity != n.Sparsity) {
			panic(fmt.Sprintf("dag: input %q redeclared with different shape or sparsity", n.Name))
		}
		return exist
	}
	n.ID = g.nextID
	g.nextID++
	g.nodes = append(g.nodes, n)
	for _, in := range n.Inputs {
		in.consumers = append(in.consumers, n)
	}
	g.interned[key] = n
	return n
}

// internKey builds the hash-consing key of a node: operator identity plus
// input node IDs.
func internKey(n *Node) string {
	switch n.Op {
	case OpInput:
		return "in|" + n.Name
	case OpScalar:
		return fmt.Sprintf("s|%g", n.Scalar)
	}
	key := fmt.Sprintf("%d|%s|%d|%d", int(n.Op), n.Func, int(n.BinOp), int(n.Agg))
	for _, in := range n.Inputs {
		key += fmt.Sprintf("|%d", in.ID)
	}
	return key
}

// Input declares a named input matrix with the given shape and estimated
// sparsity (1 for dense).
func (g *Graph) Input(name string, rows, cols int, sparsity float64) *Node {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("dag: input %q has invalid shape %dx%d", name, rows, cols))
	}
	if sparsity < 0 || sparsity > 1 {
		panic(fmt.Sprintf("dag: input %q has invalid sparsity %v", name, sparsity))
	}
	return g.add(&Node{Op: OpInput, Name: name, Rows: rows, Cols: cols, Sparsity: sparsity})
}

// Scalar declares a scalar literal.
func (g *Graph) Scalar(v float64) *Node {
	s := 1.0
	if v == 0 {
		s = 0
	}
	return g.add(&Node{Op: OpScalar, Scalar: v, Rows: 1, Cols: 1, Sparsity: s})
}

// Unary applies the named element-wise function.
func (g *Graph) Unary(fn string, in *Node) *Node {
	// Constant folding: f(scalar) -> scalar.
	if in.Op == OpScalar {
		if u, ok := matrix.UnaryFunc(fn); ok {
			return g.Scalar(u.F(in.Scalar))
		}
	}
	// neg(neg(x)) -> x.
	if fn == "neg" && in.Op == OpUnary && in.Func == "neg" {
		return in.Inputs[0]
	}
	u, ok := matrix.UnaryFunc(fn)
	if !ok {
		panic(fmt.Sprintf("dag: unknown unary function %q", fn))
	}
	sp := 1.0
	if u.F(0) == 0 {
		sp = in.Sparsity
	}
	return g.add(&Node{Op: OpUnary, Func: fn, Inputs: []*Node{in},
		Rows: in.Rows, Cols: in.Cols, Sparsity: sp})
}

// Binary applies the element-wise operator. Shapes must match, or one
// operand may be scalar-shaped (1x1) or a broadcastable row/column vector.
// Algebraic identities are simplified while building: scalar-scalar
// operations fold, and x*1, x/1, x+0, x-0, x^1 return x unchanged.
func (g *Graph) Binary(op matrix.BinOp, a, b *Node) *Node {
	rows, cols, ok := binaryShape(a, b)
	if !ok {
		panic(fmt.Sprintf("dag: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	// Constant folding.
	if a.Op == OpScalar && b.Op == OpScalar {
		return g.Scalar(op.Eval(a.Scalar, b.Scalar))
	}
	// Identity elements on the right: x*1, x/1, x+0, x-0, x^1.
	if b.Op == OpScalar {
		switch {
		case b.Scalar == 1 && (op == matrix.Mul || op == matrix.Div || op == matrix.Pow):
			return a
		case b.Scalar == 0 && (op == matrix.Add || op == matrix.Sub):
			return a
		}
	}
	// Identity elements on the left: 1*x, 0+x.
	if a.Op == OpScalar {
		switch {
		case a.Scalar == 1 && op == matrix.Mul:
			return b
		case a.Scalar == 0 && op == matrix.Add:
			return b
		}
	}
	return g.add(&Node{Op: OpBinary, BinOp: op, Inputs: []*Node{a, b},
		Rows: rows, Cols: cols, Sparsity: binarySparsity(op, a, b)})
}

func binaryShape(a, b *Node) (rows, cols int, ok bool) {
	switch {
	case a.Rows == b.Rows && a.Cols == b.Cols:
		return a.Rows, a.Cols, true
	case b.IsScalarShaped():
		return a.Rows, a.Cols, true
	case a.IsScalarShaped():
		return b.Rows, b.Cols, true
	case b.Rows == 1 && b.Cols == a.Cols, b.Cols == 1 && b.Rows == a.Rows:
		return a.Rows, a.Cols, true
	case a.Rows == 1 && a.Cols == b.Cols, a.Cols == 1 && a.Rows == b.Rows:
		return b.Rows, b.Cols, true
	}
	return 0, 0, false
}

// binarySparsity estimates output density using the standard independence
// assumptions (SystemML-style worst-case estimators).
func binarySparsity(op matrix.BinOp, a, b *Node) float64 {
	sa, sb := a.Sparsity, b.Sparsity
	// A scalar operand: result sparsity depends on whether zeros are
	// preserved for that scalar value.
	if a.Op == OpScalar || b.Op == OpScalar {
		mat, scal := a, b
		scalarOnLeft := false
		if a.Op == OpScalar {
			mat, scal = b, a
			scalarOnLeft = true
		}
		var probe float64
		if scalarOnLeft {
			probe = op.Eval(scal.Scalar, 0)
		} else {
			probe = op.Eval(0, scal.Scalar)
		}
		if probe == 0 {
			return mat.Sparsity
		}
		return 1
	}
	switch op {
	case matrix.Mul:
		return sa * sb
	case matrix.Add, matrix.Sub:
		return clamp01(sa + sb - sa*sb)
	case matrix.Div:
		return sa // zero numerator stays zero
	case matrix.Neq, matrix.Gt, matrix.Lt:
		return clamp01(sa + sb)
	default:
		return 1
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// MatMul multiplies a (IxK) by b (KxJ).
func (g *Graph) MatMul(a, b *Node) *Node {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("dag: matmul inner mismatch %dx%d x %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	// Standard estimator: P(c_ij != 0) = 1 - (1 - sa*sb)^K.
	sp := 1 - math.Pow(1-a.Sparsity*b.Sparsity, float64(a.Cols))
	return g.add(&Node{Op: OpMatMul, Inputs: []*Node{a, b},
		Rows: a.Rows, Cols: b.Cols, Sparsity: clamp01(sp)})
}

// Transpose transposes a. t(t(x)) simplifies to x, and the transpose of a
// scalar-shaped value is the value itself.
func (g *Graph) Transpose(a *Node) *Node {
	if a.Op == OpTranspose {
		return a.Inputs[0]
	}
	if a.IsScalarShaped() {
		return a
	}
	return g.add(&Node{Op: OpTranspose, Inputs: []*Node{a},
		Rows: a.Cols, Cols: a.Rows, Sparsity: a.Sparsity})
}

// Agg applies a unary aggregation.
func (g *Graph) Agg(fn matrix.AggFunc, a *Node) *Node {
	rows, cols := fn.OutDims(a.Rows, a.Cols)
	return g.add(&Node{Op: OpUnaryAgg, Agg: fn, Inputs: []*Node{a},
		Rows: rows, Cols: cols, Sparsity: 1})
}

// SetOutput marks node as a named query output.
func (g *Graph) SetOutput(name string, n *Node) {
	if _, dup := g.outputs[name]; dup {
		panic(fmt.Sprintf("dag: duplicate output %q", name))
	}
	g.outputs[name] = n
}

// Unshare returns a graph in which every consumer of a node that split
// selects reads a node of its own. A copy repeats the node over the same
// inputs and is not hash-consed, so each copy has one consumer and no
// longer terminates fusion. A node with one consumer, or one that is a named
// output, stays one node. Nodes are renumbered in creation order with each
// copy just before its consumer, so IDs still increase along data flow.
//
// g itself is never changed. When split selects no node with more than one
// consumer, Unshare returns g and allocates nothing.
func (g *Graph) Unshare(split func(*Node) bool) *Graph {
	shared := func(n *Node) bool {
		if n.NumConsumers() < 2 || !split(n) {
			return false
		}
		for _, out := range g.outputs {
			if out == n {
				return false
			}
		}
		return true
	}
	found := false
	for _, n := range g.nodes {
		found = found || shared(n)
	}
	if !found {
		return g
	}
	ng := NewGraph()
	next := make(map[*Node]*Node, len(g.nodes))
	emit := func(n *Node, inputs []*Node, intern bool) *Node {
		c := *n
		c.ID, c.Inputs, c.consumers = ng.nextID, inputs, nil
		ng.nextID++
		ng.nodes = append(ng.nodes, &c)
		for _, in := range inputs {
			in.consumers = append(in.consumers, &c)
		}
		if intern {
			ng.interned[internKey(&c)] = &c
		}
		return &c
	}
	// read resolves one input edge: a shared node is copied for the edge.
	var read func(in *Node) *Node
	read = func(in *Node) *Node {
		if !shared(in) {
			return next[in]
		}
		inputs := make([]*Node, len(in.Inputs))
		for i, x := range in.Inputs {
			inputs[i] = read(x)
		}
		return emit(in, inputs, false)
	}
	for _, n := range g.nodes {
		if shared(n) {
			continue // every consumer reads a copy
		}
		inputs := make([]*Node, len(n.Inputs))
		for i, in := range n.Inputs {
			inputs[i] = read(in)
		}
		next[n] = emit(n, inputs, true)
	}
	for name, out := range g.outputs {
		ng.outputs[name] = next[out]
	}
	return ng
}

// Prune drops every node no output reaches, and every consumer link from
// one, so the consumers of a node left are exactly the live nodes that read
// it. Node IDs are kept: they still increase along data flow.
func (g *Graph) Prune() {
	live := g.ReachableFromOutputs()
	if len(live) == len(g.nodes) {
		return
	}
	kept := g.nodes[:0]
	for _, n := range g.nodes {
		if live[n.ID] {
			kept = append(kept, n)
		} else {
			delete(g.interned, internKey(n))
		}
	}
	clear(g.nodes[len(kept):])
	g.nodes = kept
	for _, n := range kept {
		n.consumers = slices.DeleteFunc(n.consumers, func(c *Node) bool { return !live[c.ID] })
	}
}

// Inputs returns all OpInput nodes in creation order.
func (g *Graph) InputNodes() []*Node {
	var ins []*Node
	for _, n := range g.nodes {
		if n.Op == OpInput {
			ins = append(ins, n)
		}
	}
	return ins
}

// Validate checks structural invariants: non-empty outputs, acyclicity (by
// construction), input arities and that every node is reachable from an
// output or is an input.
func (g *Graph) Validate() error {
	if len(g.outputs) == 0 {
		return fmt.Errorf("dag: no outputs defined")
	}
	for _, n := range g.nodes {
		want := map[Op]int{OpInput: 0, OpScalar: 0, OpUnary: 1, OpBinary: 2,
			OpUnaryAgg: 1, OpMatMul: 2, OpTranspose: 1}[n.Op]
		if len(n.Inputs) != want {
			return fmt.Errorf("dag: node %d (%s) has %d inputs, want %d", n.ID, n.Label(), len(n.Inputs), want)
		}
		for _, in := range n.Inputs {
			if in.ID >= n.ID {
				return fmt.Errorf("dag: node %d references later node %d (cycle?)", n.ID, in.ID)
			}
		}
	}
	return nil
}

// ReachableFromOutputs returns the set of node IDs reachable (upstream) from
// any output.
func (g *Graph) ReachableFromOutputs() map[int]bool {
	seen := make(map[int]bool)
	var visit func(n *Node)
	visit = func(n *Node) {
		if seen[n.ID] {
			return
		}
		seen[n.ID] = true
		for _, in := range n.Inputs {
			visit(in)
		}
	}
	for _, out := range g.outputs {
		visit(out)
	}
	return seen
}
