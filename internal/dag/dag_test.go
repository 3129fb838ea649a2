package dag

import (
	"strings"
	"testing"

	"fuseme/internal/matrix"
)

// buildNMF constructs X * log(U x t(V) + eps), the paper's running example.
func buildNMF(t testing.TB) (*Graph, *Node) {
	t.Helper()
	g := NewGraph()
	x := g.Input("X", 3000, 3000, 0.001)
	u := g.Input("U", 3000, 200, 1)
	v := g.Input("V", 3000, 200, 1)
	mm := g.MatMul(u, g.Transpose(v))
	out := g.Binary(matrix.Mul, x, g.Unary("log", g.Binary(matrix.Add, mm, g.Scalar(1e-3))))
	g.SetOutput("O", out)
	return g, out
}

func TestShapeInference(t *testing.T) {
	g := NewGraph()
	a := g.Input("A", 10, 20, 1)
	b := g.Input("B", 20, 30, 1)
	mm := g.MatMul(a, b)
	if mm.Rows != 10 || mm.Cols != 30 {
		t.Fatalf("matmul shape %dx%d", mm.Rows, mm.Cols)
	}
	tr := g.Transpose(mm)
	if tr.Rows != 30 || tr.Cols != 10 {
		t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	ag := g.Agg(matrix.ColSum, tr)
	if ag.Rows != 1 || ag.Cols != 10 {
		t.Fatalf("colSums shape %dx%d", ag.Rows, ag.Cols)
	}
	s := g.Scalar(2)
	bc := g.Binary(matrix.Mul, mm, s)
	if bc.Rows != 10 || bc.Cols != 30 {
		t.Fatalf("scalar broadcast shape %dx%d", bc.Rows, bc.Cols)
	}
}

func TestBinaryVectorBroadcastShape(t *testing.T) {
	g := NewGraph()
	m := g.Input("M", 8, 5, 1)
	row := g.Input("r", 1, 5, 1)
	col := g.Input("c", 8, 1, 1)
	if n := g.Binary(matrix.Add, m, row); n.Rows != 8 || n.Cols != 5 {
		t.Fatal("row-vector broadcast shape wrong")
	}
	if n := g.Binary(matrix.Add, col, m); n.Rows != 8 || n.Cols != 5 {
		t.Fatal("col-vector-on-left broadcast shape wrong")
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	cases := []func(g *Graph){
		func(g *Graph) { g.MatMul(g.Input("A", 3, 4, 1), g.Input("B", 5, 3, 1)) },
		func(g *Graph) { g.Binary(matrix.Add, g.Input("A", 3, 4, 1), g.Input("B", 4, 3, 1)) },
		func(g *Graph) { g.Unary("nope", g.Input("A", 3, 4, 1)) },
		func(g *Graph) { g.Input("A", 0, 4, 1) },
		func(g *Graph) { g.Input("A", 3, 4, 2) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn(NewGraph())
		}()
	}
}

func TestSparsityEstimates(t *testing.T) {
	g := NewGraph()
	x := g.Input("X", 1000, 1000, 0.01)
	d := g.Input("D", 1000, 1000, 1)
	if n := g.Binary(matrix.Mul, x, d); n.Sparsity != 0.01 {
		t.Fatalf("sparse*dense sparsity %v", n.Sparsity)
	}
	if n := g.Binary(matrix.Add, x, d); n.Sparsity != 1 {
		t.Fatalf("sparse+dense sparsity %v", n.Sparsity)
	}
	// Zero-preserving scalar op keeps pattern.
	if n := g.Binary(matrix.Mul, x, g.Scalar(5)); n.Sparsity != 0.01 {
		t.Fatalf("x*5 sparsity %v", n.Sparsity)
	}
	// Non-preserving scalar densifies.
	if n := g.Binary(matrix.Add, x, g.Scalar(5)); n.Sparsity != 1 {
		t.Fatalf("x+5 sparsity %v", n.Sparsity)
	}
	// (X != 0) keeps the pattern.
	if n := g.Binary(matrix.Neq, x, g.Scalar(0)); n.Sparsity != 0.01 {
		t.Fatalf("x!=0 sparsity %v", n.Sparsity)
	}
	// Unary: sq preserves, exp densifies.
	if n := g.Unary("sq", x); n.Sparsity != 0.01 {
		t.Fatalf("sq sparsity %v", n.Sparsity)
	}
	if n := g.Unary("exp", x); n.Sparsity != 1 {
		t.Fatalf("exp sparsity %v", n.Sparsity)
	}
	// Dense matmul stays dense; very sparse matmul stays sparse-ish.
	u := g.Input("U", 100, 10, 1)
	v := g.Input("V", 10, 100, 1)
	if n := g.MatMul(u, v); n.Sparsity != 1 {
		t.Fatalf("dense mm sparsity %v", n.Sparsity)
	}
	s1 := g.Input("S1", 1000, 1000, 0.0001)
	s2 := g.Input("S2", 1000, 1000, 0.0001)
	if n := g.MatMul(s1, s2); n.Sparsity > 0.01 {
		t.Fatalf("sparse mm sparsity %v too high", n.Sparsity)
	}
}

func TestEstSizeAndFlops(t *testing.T) {
	g := NewGraph()
	d := g.Input("D", 100, 100, 1)
	if d.EstSizeBytes() != 100*100*8 {
		t.Fatalf("dense size %d", d.EstSizeBytes())
	}
	x := g.Input("X", 100, 100, 0.01)
	if x.EstSizeBytes() != 100*16 {
		t.Fatalf("sparse size %d", x.EstSizeBytes())
	}
	u := g.Input("U", 100, 50, 1)
	v := g.Input("V", 50, 100, 1)
	mm := g.MatMul(u, v)
	if mm.EstFlops() != 2*100*50*100 {
		t.Fatalf("mm flops %d", mm.EstFlops())
	}
	// Sparse left operand limits the work.
	sm := g.MatMul(x, d)
	if sm.EstFlops() != 2*x.EstNNZ()*100 {
		t.Fatalf("sparse mm flops %d", sm.EstFlops())
	}
	bn := g.Binary(matrix.Add, u, u)
	if bn.EstFlops() != 100*50 {
		t.Fatalf("binary flops %d", bn.EstFlops())
	}
}

func TestConsumersTracking(t *testing.T) {
	g := NewGraph()
	x := g.Input("X", 10, 10, 1)
	a := g.Unary("sq", x)
	b := g.Unary("log", x)
	c := g.Binary(matrix.Add, a, b)
	if x.NumConsumers() != 2 {
		t.Fatalf("X consumers %d, want 2", x.NumConsumers())
	}
	if a.NumConsumers() != 1 || a.Consumers()[0] != c {
		t.Fatal("consumer tracking broken")
	}
	if c.NumConsumers() != 0 {
		t.Fatal("root has consumers")
	}
}

func TestValidate(t *testing.T) {
	g, _ := buildNMF(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	empty := NewGraph()
	if err := empty.Validate(); err == nil {
		t.Fatal("empty graph validated")
	}
}

func TestNodesTopologicalOrder(t *testing.T) {
	g, _ := buildNMF(t)
	seen := map[int]bool{}
	for _, n := range g.Nodes() {
		for _, in := range n.Inputs {
			if !seen[in.ID] {
				t.Fatalf("node %d appears before its input %d", n.ID, in.ID)
			}
		}
		seen[n.ID] = true
	}
}

func TestOutputsAndDuplicatePanic(t *testing.T) {
	g, out := buildNMF(t)
	if g.Outputs()["O"] != out {
		t.Fatal("output not registered")
	}
	if names := g.OutputNames(); len(names) != 1 || names[0] != "O" {
		t.Fatalf("OutputNames = %v", names)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate output did not panic")
		}
	}()
	g.SetOutput("O", out)
}

func TestReachableFromOutputs(t *testing.T) {
	g := NewGraph()
	x := g.Input("X", 5, 5, 1)
	used := g.Unary("sq", x)
	unused := g.Unary("log", x)
	g.SetOutput("O", used)
	reach := g.ReachableFromOutputs()
	if !reach[used.ID] || !reach[x.ID] {
		t.Fatal("reachable nodes missing")
	}
	if reach[unused.ID] {
		t.Fatal("unreachable node marked reachable")
	}
}

func TestLabels(t *testing.T) {
	g := NewGraph()
	x := g.Input("X", 5, 5, 1)
	if x.Label() != "X" {
		t.Fatalf("input label %q", x.Label())
	}
	if got := g.Unary("log", x).Label(); got != "u(log)" {
		t.Fatalf("unary label %q", got)
	}
	if got := g.Binary(matrix.Mul, x, x).Label(); got != "b(*)" {
		t.Fatalf("binary label %q", got)
	}
	if got := g.MatMul(x, x).Label(); got != "ba(x)" {
		t.Fatalf("matmul label %q", got)
	}
	if got := g.Transpose(x).Label(); got != "r(T)" {
		t.Fatalf("transpose label %q", got)
	}
	if got := g.Agg(matrix.SumAll, x).Label(); got != "ua(sum)" {
		t.Fatalf("agg label %q", got)
	}
	if got := g.Scalar(2.5).Label(); got != "2.5" {
		t.Fatalf("scalar label %q", got)
	}
}

func TestDOTOutput(t *testing.T) {
	g, out := buildNMF(t)
	dot := g.DOT(map[int]string{out.ID: "orange"})
	for _, want := range []string{"digraph", "ba(x)", "orange", "out_O"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestInputNodes(t *testing.T) {
	g, _ := buildNMF(t)
	ins := g.InputNodes()
	if len(ins) != 3 {
		t.Fatalf("%d inputs, want 3", len(ins))
	}
	if ins[0].Name != "X" || ins[1].Name != "U" || ins[2].Name != "V" {
		t.Fatalf("input order %v %v %v", ins[0].Name, ins[1].Name, ins[2].Name)
	}
}

func TestPeepholeSimplifications(t *testing.T) {
	g := NewGraph()
	x := g.Input("X", 8, 6, 1)
	// Identity elements vanish.
	if g.Binary(matrix.Mul, x, g.Scalar(1)) != x {
		t.Error("x*1 not simplified")
	}
	if g.Binary(matrix.Add, x, g.Scalar(0)) != x {
		t.Error("x+0 not simplified")
	}
	if g.Binary(matrix.Sub, x, g.Scalar(0)) != x {
		t.Error("x-0 not simplified")
	}
	if g.Binary(matrix.Pow, x, g.Scalar(1)) != x {
		t.Error("x^1 not simplified")
	}
	if g.Binary(matrix.Mul, g.Scalar(1), x) != x {
		t.Error("1*x not simplified")
	}
	if g.Binary(matrix.Add, g.Scalar(0), x) != x {
		t.Error("0+x not simplified")
	}
	// Non-identities survive.
	if g.Binary(matrix.Mul, x, g.Scalar(2)) == x {
		t.Error("x*2 wrongly simplified")
	}
	// Constant folding.
	folded := g.Binary(matrix.Add, g.Scalar(2), g.Scalar(3))
	if folded.Op != OpScalar || folded.Scalar != 5 {
		t.Errorf("2+3 folded to %v", folded.Label())
	}
	uf := g.Unary("sq", g.Scalar(4))
	if uf.Op != OpScalar || uf.Scalar != 16 {
		t.Errorf("sq(4) folded to %v", uf.Label())
	}
	// Double transpose and double negation cancel.
	if g.Transpose(g.Transpose(x)) != x {
		t.Error("t(t(x)) not simplified")
	}
	if g.Unary("neg", g.Unary("neg", x)) != x {
		t.Error("neg(neg(x)) not simplified")
	}
	// Transpose of a scalar-shaped value is itself.
	s := g.Agg(matrix.SumAll, x)
	if g.Transpose(s) != s {
		t.Error("t(scalar) not simplified")
	}
}

// TestUnshareCopiesPerConsumer: every consumer of a selected shared node
// reads a copy of its own, the caller's graph keeps its nodes and links,
// and the copy is a valid graph whose IDs still increase along data flow.
func TestUnshareCopiesPerConsumer(t *testing.T) {
	g := NewGraph()
	x := g.Input("X", 6, 4, 0.5)
	v := g.Input("V", 6, 3, 1)
	tv := g.Transpose(v)
	a := g.MatMul(tv, x)
	b := g.MatMul(tv, v)
	g.SetOutput("A", a)
	g.SetOutput("B", b)
	before := len(g.Nodes())

	ng := g.Unshare(func(n *Node) bool { return n.Op == OpTranspose })
	if ng == g {
		t.Fatal("a shared transpose came back shared")
	}
	if len(g.Nodes()) != before || tv.NumConsumers() != 2 || a.Inputs[0] != tv || b.Inputs[0] != tv {
		t.Fatal("Unshare changed the caller's graph")
	}
	if err := ng.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(ng.Nodes()); got != before+1 {
		t.Fatalf("%d nodes, want %d: one t(V) per consumer", got, before+1)
	}
	na, nb := ng.Outputs()["A"], ng.Outputs()["B"]
	if na.Inputs[0] == nb.Inputs[0] {
		t.Fatal("the two products read one t(V)")
	}
	for _, c := range []*Node{na.Inputs[0], nb.Inputs[0]} {
		if c.Op != OpTranspose || c.Inputs[0].Name != "V" || c.NumConsumers() != 1 || c.Rows != 3 || c.Cols != 6 {
			t.Fatalf("copy %s#%d: %dx%d over %s with %d consumers", c.Label(), c.ID, c.Rows, c.Cols, c.Inputs[0].Label(), c.NumConsumers())
		}
	}
	for i, n := range ng.Nodes() {
		if n.ID != i {
			t.Fatalf("node %d has ID %d", i, n.ID)
		}
	}
	if nv := nb.Inputs[1]; nv.Name != "V" || nv.NumConsumers() != 3 {
		t.Fatalf("V is read by %d operators in the copy, want 3", nv.NumConsumers())
	}
}

// TestUnshareKeepsOutputsAndUnselected: a selected node that is a named
// output, and a shared node split does not select, stay one node; then the
// graph comes back as it is.
func TestUnshareKeepsOutputsAndUnselected(t *testing.T) {
	g := NewGraph()
	v := g.Input("V", 6, 3, 1)
	tv := g.Transpose(v)
	g.SetOutput("T", tv)
	g.SetOutput("A", g.MatMul(tv, v))
	g.SetOutput("B", g.Binary(matrix.Mul, tv, tv))
	if ng := g.Unshare(func(n *Node) bool { return n.Op == OpTranspose }); ng != g {
		t.Fatal("a transpose that is a named output was split")
	}
	if ng := g.Unshare(func(n *Node) bool { return n.Op == OpMatMul }); ng != g {
		t.Fatal("a shared node split does not select was split")
	}
}
