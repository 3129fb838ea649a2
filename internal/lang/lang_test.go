package lang

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/dag"
	"fuseme/internal/matrix"
)

var nmfInputs = map[string]InputDecl{
	"X": {3000, 3000, 0.001},
	"U": {3000, 200, 1},
	"V": {3000, 200, 1},
}

func mustParse(t *testing.T, src string, inputs map[string]InputDecl) *dag.Graph {
	t.Helper()
	g, err := Parse(src, inputs)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return g
}

func TestParseNMFKernel(t *testing.T) {
	g := mustParse(t, "O = X * log(U %*% t(V) + 0.001)", nmfInputs)
	out := g.Outputs()["O"]
	if out == nil {
		t.Fatal("output O missing")
	}
	if out.Rows != 3000 || out.Cols != 3000 {
		t.Fatalf("output shape %dx%d", out.Rows, out.Cols)
	}
	if out.Op != dag.OpBinary || out.BinOp != matrix.Mul {
		t.Fatalf("root op %v", out.Label())
	}
	// Count one matmul and one transpose.
	var mm, tr int
	for _, n := range g.Nodes() {
		switch n.Op {
		case dag.OpMatMul:
			mm++
		case dag.OpTranspose:
			tr++
		}
	}
	if mm != 1 || tr != 1 {
		t.Fatalf("mm=%d tr=%d", mm, tr)
	}
}

func TestParseGNMF(t *testing.T) {
	// Eq. 6 of the paper: both factor updates.
	src := `
# GNMF multiplicative updates
U2 = U * (t(V) %*% X) / (t(V) %*% V %*% U)
V2 = V * (X %*% t(U)) / (V %*% (U %*% t(U)))
`
	inputs := map[string]InputDecl{
		"X": {10000, 8000, 0.01},
		"U": {200, 8000, 1},
		"V": {10000, 200, 1},
	}
	g := mustParse(t, src, inputs)
	if len(g.Outputs()) != 2 {
		t.Fatalf("%d outputs, want 2", len(g.Outputs()))
	}
	u2 := g.Outputs()["U2"]
	if u2.Rows != 200 || u2.Cols != 8000 {
		t.Fatalf("U2 shape %dx%d", u2.Rows, u2.Cols)
	}
	v2 := g.Outputs()["V2"]
	if v2.Rows != 10000 || v2.Cols != 200 {
		t.Fatalf("V2 shape %dx%d", v2.Rows, v2.Cols)
	}
}

func TestParseALSLoss(t *testing.T) {
	src := "loss = sum((X != 0) * (X - U %*% V)^2)"
	inputs := map[string]InputDecl{
		"X": {1000, 1000, 0.01},
		"U": {1000, 50, 1},
		"V": {50, 1000, 1},
	}
	g := mustParse(t, src, inputs)
	out := g.Outputs()["loss"]
	if out.Rows != 1 || out.Cols != 1 {
		t.Fatalf("loss shape %dx%d", out.Rows, out.Cols)
	}
	if out.Op != dag.OpUnaryAgg || out.Agg != matrix.SumAll {
		t.Fatalf("root %v", out.Label())
	}
	// ^2 must lower to the cheap sq kernel.
	foundSq := false
	for _, n := range g.Nodes() {
		if n.Op == dag.OpUnary && n.Func == "sq" {
			foundSq = true
		}
	}
	if !foundSq {
		t.Fatal("^2 did not lower to u(sq)")
	}
}

func TestPrecedence(t *testing.T) {
	inputs := map[string]InputDecl{"A": {4, 4, 1}, "B": {4, 4, 1}, "C": {4, 4, 1}}
	// A + B * C parses as A + (B * C).
	g := mustParse(t, "O = A + B * C", inputs)
	root := g.Outputs()["O"]
	if root.BinOp != matrix.Add {
		t.Fatalf("root should be +, got %v", root.Label())
	}
	if root.Inputs[1].BinOp != matrix.Mul {
		t.Fatal("* should bind tighter than +")
	}
	// %*% binds tighter than *.
	g = mustParse(t, "O = A * B %*% C", inputs)
	root = g.Outputs()["O"]
	if root.BinOp != matrix.Mul || root.Inputs[1].Op != dag.OpMatMul {
		t.Fatal("%*% should bind tighter than *")
	}
	// Unary minus.
	g = mustParse(t, "O = -A + B", inputs)
	root = g.Outputs()["O"]
	if root.BinOp != matrix.Add || root.Inputs[0].Func != "neg" {
		t.Fatal("unary minus mis-parsed")
	}
	// Comparisons bind loosest.
	g = mustParse(t, "O = A + B > C", inputs)
	if g.Outputs()["O"].BinOp != matrix.Gt {
		t.Fatal("comparison should bind loosest")
	}
}

func TestScientificNumbers(t *testing.T) {
	g := mustParse(t, "O = A + 1e-3", map[string]InputDecl{"A": {2, 2, 1}})
	root := g.Outputs()["O"]
	if root.Inputs[1].Scalar != 1e-3 {
		t.Fatalf("scalar = %v", root.Inputs[1].Scalar)
	}
	g = mustParse(t, "O = A * 2.5E2", map[string]InputDecl{"A": {2, 2, 1}})
	if g.Outputs()["O"].Inputs[1].Scalar != 250 {
		t.Fatal("2.5E2 mis-lexed")
	}
}

func TestAggregationsAndFunctions(t *testing.T) {
	inputs := map[string]InputDecl{"A": {6, 4, 1}}
	cases := map[string]struct{ rows, cols int }{
		"O = sum(A)":     {1, 1},
		"O = rowSums(A)": {6, 1},
		"O = colSums(A)": {1, 4},
		"O = mean(A)":    {1, 1},
		"O = min(A)":     {1, 1},
		"O = t(A)":       {4, 6},
		"O = sigmoid(A)": {6, 4},
	}
	for src, want := range cases {
		g := mustParse(t, src, inputs)
		out := g.Outputs()["O"]
		if out.Rows != want.rows || out.Cols != want.cols {
			t.Errorf("%s: shape %dx%d, want %dx%d", src, out.Rows, out.Cols, want.rows, want.cols)
		}
	}
	// Two-argument min is element-wise.
	g := mustParse(t, "O = min(A, A + 1)", inputs)
	if g.Outputs()["O"].Op != dag.OpBinary {
		t.Fatal("min(a,b) should be element-wise")
	}
}

func TestMultiStatementBindings(t *testing.T) {
	src := "tmp = A %*% B; O = tmp * tmp"
	inputs := map[string]InputDecl{"A": {3, 5, 1}, "B": {5, 3, 1}}
	g := mustParse(t, src, inputs)
	if len(g.Outputs()) != 1 {
		t.Fatalf("outputs %v; consumed temp should not be an output", g.OutputNames())
	}
	if g.Outputs()["O"] == nil {
		t.Fatal("O missing")
	}
	// tmp used twice must be a single node with two consumers.
	for _, n := range g.Nodes() {
		if n.Op == dag.OpMatMul && n.NumConsumers() != 2 {
			t.Fatalf("shared temp consumers = %d", n.NumConsumers())
		}
	}
}

func TestRebinding(t *testing.T) {
	src := "x = A + 1\nx = x * 2\nO = x"
	g := mustParse(t, src, map[string]InputDecl{"A": {2, 2, 1}})
	// x rebinding: O aliases final x; both names refer to one root, and
	// outputs include whichever names remain unconsumed.
	if len(g.Outputs()) == 0 {
		t.Fatal("no outputs")
	}
}

// TestDoubleTransposeLeavesNoPhantom: t(t(E)) folds to E and leaves no
// t(E) behind that would still read E, and a binding is an output unless a
// later statement reads it by name.
func TestDoubleTransposeLeavesNoPhantom(t *testing.T) {
	inputs := map[string]InputDecl{"A": {20, 12, 1}, "B": {12, 20, 1}, "X": {20, 20, 1}}
	live := func(g *dag.Graph) {
		t.Helper()
		for _, n := range g.Nodes() {
			if n.Op == dag.OpTranspose {
				t.Errorf("node %d (%s) survived the fold", n.ID, n.Label())
			}
		}
	}

	g := mustParse(t, "O = t(t(A %*% B))", inputs)
	if names := g.OutputNames(); len(names) != 1 || names[0] != "O" || g.Outputs()["O"].Op != dag.OpMatMul {
		t.Errorf("outputs %v, want O, the product", names)
	}
	live(g)

	g = mustParse(t, "O = t(t(X))\nQ = sum(X)", inputs)
	if names := g.OutputNames(); len(names) != 2 || g.Outputs()["O"] != g.Outputs()["Q"].Inputs[0] {
		t.Errorf("outputs %v, want O (the input X) beside Q", names)
	}
	live(g)

	g = mustParse(t, "P = A %*% B\nO = t(t(P)) * 2", inputs)
	if names := g.OutputNames(); len(names) != 1 || names[0] != "O" {
		t.Errorf("outputs %v, want O alone", names)
	}
	live(g)
	p := g.Outputs()["O"].Inputs[0]
	if p.Op != dag.OpMatMul || p.NumConsumers() != 1 {
		t.Fatalf("P has %d consumers, want the multiplication by 2 alone", p.NumConsumers())
	}
	cc := cluster.Config{Nodes: 2, TasksPerNode: 2, TaskMemBytes: 1 << 30, NetBandwidth: 1e9,
		CompBandwidth: 50e9, BlockSize: 8}
	pp, err := core.FuseME{}.Compile(g, cc)
	if err != nil {
		t.Fatal(err)
	}
	if len(pp.Ops) != 1 || pp.Ops[0].Kind != "CFO" {
		t.Errorf("plan:\n%swant one CFO", pp.Describe())
	}
}

func TestParseErrors(t *testing.T) {
	inputs := map[string]InputDecl{"A": {3, 3, 1}, "B": {4, 4, 1}}
	cases := []string{
		"O = A +",                 // dangling operator
		"O = undefined_var",       // unknown variable
		"O = A %*",                // broken %*%
		"O = foo(A)",              // unknown function
		"O = t(A, A)",             // wrong arity
		"O = (A + A",              // unbalanced paren
		"= A",                     // missing name
		"O A",                     // missing '='
		"O = A $ B",               // bad character
		"O = A + B",               // shape mismatch via dag panic
		"tmp = A; O = tmp; Z = O", // fine... but listed to ensure no error
	}
	for _, src := range cases[:10] {
		if _, err := Parse(src, inputs); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
	if _, err := Parse(cases[10], inputs); err != nil {
		t.Errorf("chained aliases failed: %v", err)
	}
}

func TestNoOutputsError(t *testing.T) {
	if _, err := Parse("", nil); err == nil {
		t.Fatal("empty script parsed")
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := `
# leading comment
O = A + 1   # trailing comment

`
	g := mustParse(t, src, map[string]InputDecl{"A": {2, 2, 1}})
	if g.Outputs()["O"] == nil {
		t.Fatal("comment handling broke parsing")
	}
}

func TestErrorMessagesCarryLineNumbers(t *testing.T) {
	src := "O = A + 1\nP = nope"
	_, err := Parse(src, map[string]InputDecl{"A": {2, 2, 1}})
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error %v should mention line 2", err)
	}
}

func TestPowerRightAssociative(t *testing.T) {
	g := mustParse(t, "O = A ^ 3 ^ 2", map[string]InputDecl{"A": {2, 2, 1}})
	// A ^ (3 ^ 2): the exponent subtree constant-folds to the scalar 9 —
	// right associativity is visible through the folded value (left
	// association would square A^3 instead).
	root := g.Outputs()["O"]
	if root.Op != dag.OpBinary || root.BinOp != matrix.Pow {
		t.Fatalf("root %v", root.Label())
	}
	exp := root.Inputs[1]
	if exp.Op != dag.OpScalar || exp.Scalar != 9 {
		t.Fatalf("exponent %v, want folded scalar 9", exp.Label())
	}
}

// TestParserRobustness feeds mangled scripts to the parser: it must return
// errors, never panic, and never accept garbage silently.
func TestParserRobustness(t *testing.T) {
	inputs := map[string]InputDecl{"A": {8, 8, 1}, "B": {8, 8, 1}}
	base := "O = A * log(B %*% t(A) + 1e-3)"
	junk := []byte("()%*=+-/^ \t\nABO13.e#,<>!")
	rng := int64(12345)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		v := int(rng>>33) % n
		if v < 0 {
			v = -v
		}
		return v
	}
	for round := 0; round < 500; round++ {
		b := []byte(base)
		for m := 0; m <= next(4); m++ {
			switch next(3) {
			case 0: // mutate a byte
				b[next(len(b))] = junk[next(len(junk))]
			case 1: // delete a byte
				i := next(len(b))
				b = append(b[:i], b[i+1:]...)
			case 2: // insert a byte
				i := next(len(b))
				b = append(b[:i], append([]byte{junk[next(len(junk))]}, b[i:]...)...)
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", b, r)
				}
			}()
			g, err := Parse(string(b), inputs)
			if err == nil && g == nil {
				t.Fatalf("nil graph without error for %q", b)
			}
			if err == nil {
				if verr := g.Validate(); verr != nil {
					t.Fatalf("accepted %q but graph invalid: %v", b, verr)
				}
			}
		}()
	}
}

func TestMatrixChainReordering(t *testing.T) {
	// A(1000x10) %*% B(10x1000) %*% C(1000x10): left-associative evaluation
	// materialises a 1000x1000 intermediate; the optimizer must choose
	// A %*% (B %*% C), whose intermediate is 10x10.
	inputs := map[string]InputDecl{
		"A": {1000, 10, 1}, "B": {10, 1000, 1}, "C": {1000, 10, 1},
	}
	g := mustParse(t, "O = A %*% B %*% C", inputs)
	root := g.Outputs()["O"]
	if root.Op != dag.OpMatMul {
		t.Fatalf("root %v", root.Label())
	}
	if root.Inputs[0].Op != dag.OpInput || root.Inputs[0].Name != "A" {
		t.Fatalf("left operand should be A, got %s", root.Inputs[0].Label())
	}
	inner := root.Inputs[1]
	if inner.Op != dag.OpMatMul || inner.Rows != 10 || inner.Cols != 10 {
		t.Fatalf("inner product should be B %%*%% C (10x10), got %s %dx%d",
			inner.Label(), inner.Rows, inner.Cols)
	}
	// Explicit parentheses are honoured even when suboptimal.
	g = mustParse(t, "O = (A %*% B) %*% C", inputs)
	root = g.Outputs()["O"]
	if root.Inputs[0].Op != dag.OpMatMul || root.Inputs[0].Rows != 1000 || root.Inputs[0].Cols != 1000 {
		t.Fatal("explicit parenthesisation was overridden")
	}
}

func TestMatrixChainSparseAware(t *testing.T) {
	// t(V) %*% X %*% D with sparse X: (t(V) %*% X) %*% D is estimated at
	// 2e9 + 4e9 = 6e9 flops against 2e9 + 8e9 = 1e10 for t(V) %*% (X %*% D),
	// whose X %*% D is a dense 100000x200 product. The DP must keep the
	// cheap ordering.
	inputs := map[string]InputDecl{
		"V": {100_000, 200, 1},
		"X": {100_000, 50_000, 0.001},
		"D": {50_000, 200, 1},
	}
	g := mustParse(t, "O = t(V) %*% X %*% D", inputs)
	root := g.Outputs()["O"]
	if root.Rows != 200 || root.Cols != 200 {
		t.Fatalf("shape %dx%d", root.Rows, root.Cols)
	}
	if got, want := chainString(root), "((t(V) X) D)"; got != want {
		t.Fatalf("parsed as %s, want %s", got, want)
	}
}

func TestMatrixChainLeftOptimal(t *testing.T) {
	// The GNMF U-update's denominator: t(V) %*% V %*% U must become
	// (t(V) %*% V) %*% U, a k x k product times U, never t(V) %*% (V %*% U),
	// whose V %*% U is a dense users x items matrix.
	inputs := map[string]InputDecl{
		"V": {8000, 64, 1},
		"U": {64, 4000, 1},
	}
	g := mustParse(t, "O = t(V) %*% V %*% U", inputs)
	if got, want := chainString(g.Outputs()["O"]), "((t(V) V) U)"; got != want {
		t.Fatalf("parsed as %s, want %s", got, want)
	}
}

// chainString renders a multiplication tree with one pair of parentheses
// per product, naming inputs and their transposes.
func chainString(n *dag.Node) string {
	switch n.Op {
	case dag.OpMatMul:
		return "(" + chainString(n.Inputs[0]) + " " + chainString(n.Inputs[1]) + ")"
	case dag.OpTranspose:
		return "t(" + chainString(n.Inputs[0]) + ")"
	}
	return n.Name
}

// productEstimate is the flops and the estimated density of one product of
// a rows x inner and an inner x cols operand with densities ld and rd.
func productEstimate(rows, inner, cols int, ld, rd float64) (flops, density float64) {
	return 2 * float64(rows) * float64(inner) * float64(cols) * ld * rd,
		1 - math.Pow(1-ld*rd, float64(inner))
}

// chainCost is the estimate the chain DP minimises: the flops of every
// product in the tree, each priced by its operands' estimated densities,
// and the density of the tree's result.
func chainCost(n *dag.Node) (flops, density float64) {
	if n.Op != dag.OpMatMul {
		return 0, n.Sparsity
	}
	lf, ld := chainCost(n.Inputs[0])
	rf, rd := chainCost(n.Inputs[1])
	mul, d := productEstimate(n.Rows, n.Inputs[0].Cols, n.Cols, ld, rd)
	return lf + rf + mul, d
}

// bruteChainCost is the least chainCost over every parenthesisation of
// ops[i..j], with the density of a sub-product taken from the same tree.
// It returns, for each reachable density of the product, its least cost.
func bruteChainCost(ops []InputDecl, i, j int) map[float64]float64 {
	if i == j {
		return map[float64]float64{ops[i].Sparsity: 0}
	}
	out := map[float64]float64{}
	for k := i; k < j; k++ {
		for ld, lf := range bruteChainCost(ops, i, k) {
			for rd, rf := range bruteChainCost(ops, k+1, j) {
				mul, d := productEstimate(ops[i].Rows, ops[k].Cols, ops[j].Cols, ld, rd)
				if old, ok := out[d]; !ok || lf+rf+mul < old {
					out[d] = lf + rf + mul
				}
			}
		}
	}
	return out
}

// randomChain parses "O = A0 %*% ... %*% A(n-1)" over random conforming
// operands and checks that the tree multiplies them in their written order
// with every product's shape right.
func randomChain(t *testing.T, rng *rand.Rand, n int, dims []int, densities []float64) ([]InputDecl, *dag.Node) {
	t.Helper()
	ops := make([]InputDecl, n)
	inputs := map[string]InputDecl{}
	names := make([]string, n)
	rows := dims[rng.Intn(len(dims))]
	for i := range ops {
		cols := dims[rng.Intn(len(dims))]
		ops[i] = InputDecl{rows, cols, densities[rng.Intn(len(densities))]}
		names[i] = fmt.Sprintf("A%d", i)
		inputs[names[i]] = ops[i]
		rows = cols
	}
	src := "O = " + strings.Join(names, " %*% ")
	root := mustParse(t, src, inputs).Outputs()["O"]
	var leaves []string
	var walk func(*dag.Node)
	walk = func(n *dag.Node) {
		if n.Op != dag.OpMatMul {
			leaves = append(leaves, n.Name)
			return
		}
		if n.Inputs[0].Cols != n.Inputs[1].Rows ||
			n.Rows != n.Inputs[0].Rows || n.Cols != n.Inputs[1].Cols {
			t.Fatalf("%s: product %dx%d of %dx%d and %dx%d", src, n.Rows, n.Cols,
				n.Inputs[0].Rows, n.Inputs[0].Cols, n.Inputs[1].Rows, n.Inputs[1].Cols)
		}
		walk(n.Inputs[0])
		walk(n.Inputs[1])
	}
	walk(root)
	if strings.Join(leaves, ",") != strings.Join(names, ",") {
		t.Fatalf("%s: leaves %v", src, leaves)
	}
	if root.Rows != ops[0].Rows || root.Cols != ops[n-1].Cols {
		t.Fatalf("%s: result %dx%d", src, root.Rows, root.Cols)
	}
	return ops, root
}

func TestMatrixChainDPIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	dims := []int{1, 7, 40, 300, 2000}
	densities := []float64{1, 1, 0.3, 0.01, 0.0005}
	for trial := 0; trial < 400; trial++ {
		ops, root := randomChain(t, rng, 3+rng.Intn(4), dims, densities)
		got, _ := chainCost(root)
		best := math.Inf(1)
		for _, c := range bruteChainCost(ops, 0, len(ops)-1) {
			best = min(best, c)
		}
		if math.Abs(got-best) > 1e-9*best {
			t.Fatalf("%v: built %s costs %g, best parenthesisation %g",
				ops, chainString(root), got, best)
		}
	}
}

// classicChainCost is the cost of the tree the textbook DP builds, which
// keeps only the cheapest way to compute each sub-product.
func classicChainCost(ops []InputDecl) float64 {
	n := len(ops)
	cost := make([][]float64, n)
	density := make([][]float64, n)
	for i := range ops {
		cost[i], density[i] = make([]float64, n), make([]float64, n)
		density[i][i] = ops[i].Sparsity
	}
	for length := 2; length <= n; length++ {
		for i := 0; i+length-1 < n; i++ {
			j := i + length - 1
			cost[i][j] = math.Inf(1)
			for k := i; k < j; k++ {
				mul, d := productEstimate(ops[i].Rows, ops[k].Cols, ops[j].Cols, density[i][k], density[k+1][j])
				if c := cost[i][k] + cost[k+1][j] + mul; c < cost[i][j] {
					cost[i][j], density[i][j] = c, d
				}
			}
		}
	}
	return cost[0][n-1]
}

func TestMatrixChainLongSparseNeverDearerThanClassic(t *testing.T) {
	// Twenty very sparse operands overflow the per-interval cap; the tree
	// must still be at least as cheap as the textbook DP's.
	rng := rand.New(rand.NewSource(7))
	dims := []int{5, 50, 500, 5000, 50000}
	densities := []float64{1, 0.3, 0.01, 0.001, 0.0001, 0.00001}
	for trial := 0; trial < 10; trial++ {
		ops, root := randomChain(t, rng, 20, dims, densities)
		got, _ := chainCost(root)
		if classic := classicChainCost(ops); got > classic*(1+1e-9) {
			t.Fatalf("%v: built %s costs %g, textbook DP %g", ops, chainString(root), got, classic)
		}
	}
}

func TestMatrixChainGNMFDenominator(t *testing.T) {
	// The headline case: V %*% U %*% t(U) must become V %*% (U %*% t(U)),
	// never materialising the users x items product.
	inputs := map[string]InputDecl{
		"V": {100_000, 200, 1},
		"U": {200, 50_000, 1},
	}
	g := mustParse(t, "O = V %*% U %*% t(U)", inputs)
	root := g.Outputs()["O"]
	if root.Inputs[0].Name != "V" {
		t.Fatalf("left operand %s, want V", root.Inputs[0].Label())
	}
	if inner := root.Inputs[1]; inner.Rows != 200 || inner.Cols != 200 {
		t.Fatalf("inner %dx%d, want 200x200", inner.Rows, inner.Cols)
	}
}

func TestMatrixChainMismatchError(t *testing.T) {
	inputs := map[string]InputDecl{"A": {4, 5, 1}, "B": {6, 4, 1}}
	if _, err := Parse("O = A %*% B", inputs); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("err = %v", err)
	}
}
