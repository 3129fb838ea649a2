package exec

import (
	"strings"
	"testing"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/dag"
	"fuseme/internal/fusion"
	"fuseme/internal/matrix"
	"fuseme/internal/ref"
)

func testCluster(bs int) *cluster.Cluster {
	return cluster.MustNew(cluster.Config{
		Nodes:         2,
		TasksPerNode:  2,
		TaskMemBytes:  1 << 40,
		NetBandwidth:  1e9,
		CompBandwidth: 1e12,
		BlockSize:     bs,
	})
}

// fullPlan fuses every operator of g into one plan rooted at g's single
// output.
func fullPlan(t testing.TB, g *dag.Graph) *fusion.Plan {
	t.Helper()
	var root *dag.Node
	for _, n := range g.Outputs() {
		root = n
	}
	members := map[int]*dag.Node{}
	for _, n := range g.Nodes() {
		if !n.IsLeaf() {
			members[n.ID] = n
		}
	}
	p, err := fusion.NewPlan(root, members)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// bindInputs builds blocked bindings and the flat input map for a graph.
func bindInputs(t testing.TB, g *dag.Graph, bs int, flats map[string]matrix.Mat) Bindings {
	t.Helper()
	bind := Bindings{}
	for _, in := range g.InputNodes() {
		m, ok := flats[in.Name]
		if !ok {
			t.Fatalf("no flat input %q", in.Name)
		}
		bind[in.ID] = block.FromMat(m, bs)
	}
	return bind
}

// runAndCompare executes the fused plan under the given parameters and
// checks the result against the single-node reference.
func runAndCompare(t *testing.T, g *dag.Graph, flats map[string]matrix.Mat, op *FusedOp, bs int) *cluster.Cluster {
	t.Helper()
	cl := testCluster(bs)
	bind := bindInputs(t, g, bs, flats)
	got, err := op.Execute(cl, bind)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	want, err := ref.Evaluate(g, flats)
	if err != nil {
		t.Fatalf("ref: %v", err)
	}
	var wantOut matrix.Mat
	for _, m := range want {
		wantOut = m
	}
	if !matrix.EqualApprox(got.ToMat(), wantOut, 1e-9) {
		t.Fatalf("result mismatch (P=%d Q=%d R=%d strategy=%v)", op.P, op.Q, op.R, op.Strategy)
	}
	return cl
}

// nmfGraph builds X * log(U %*% t(V) + eps) with real input data.
func nmfGraph(t testing.TB, rows, cols, k int, density float64) (*dag.Graph, map[string]matrix.Mat) {
	t.Helper()
	g := dag.NewGraph()
	x := g.Input("X", rows, cols, density)
	u := g.Input("U", rows, k, 1)
	v := g.Input("V", cols, k, 1)
	mm := g.MatMul(u, g.Transpose(v))
	out := g.Binary(matrix.Mul, x, g.Unary("log", g.Binary(matrix.Add, mm, g.Scalar(2))))
	g.SetOutput("O", out)
	flats := map[string]matrix.Mat{
		"X": matrix.RandomSparse(rows, cols, density, 0.5, 1.5, 1),
		"U": matrix.RandomDense(rows, k, 0.5, 1.5, 2),
		"V": matrix.RandomDense(cols, k, 0.5, 1.5, 3),
	}
	return g, flats
}

func TestCFOMatchesReferenceNMF(t *testing.T) {
	const bs = 7
	g, flats := nmfGraph(t, 40, 33, 15, 0.05)
	plan := fullPlan(t, g)
	for _, c := range []struct{ p, q, r int }{
		{1, 1, 1}, {2, 2, 1}, {3, 2, 2}, {6, 5, 3}, {100, 100, 100},
	} {
		op := &FusedOp{Plan: plan, P: c.p, Q: c.q, R: c.r}
		runAndCompare(t, g, flats, op, bs)
	}
}

func TestRFOAndBFOMatchReference(t *testing.T) {
	const bs = 8
	g, flats := nmfGraph(t, 30, 26, 12, 0.1)
	plan := fullPlan(t, g)
	gi, gj, _ := plan.BlockGridDims(bs)
	rfo := &FusedOp{Plan: plan, P: gi, Q: gj, R: 1}
	runAndCompare(t, g, flats, rfo, bs)
	bfo := &FusedOp{Plan: plan, Strategy: Broadcast}
	runAndCompare(t, g, flats, bfo, bs)
}

func TestDenseDriverNoMask(t *testing.T) {
	// Same query with a dense X: the masked path must not engage, and the
	// result must still be exact.
	const bs = 6
	g := dag.NewGraph()
	x := g.Input("X", 20, 20, 1)
	u := g.Input("U", 20, 5, 1)
	v := g.Input("V", 20, 5, 1)
	mm := g.MatMul(u, g.Transpose(v))
	out := g.Binary(matrix.Mul, x, g.Unary("log", g.Binary(matrix.Add, mm, g.Scalar(2))))
	g.SetOutput("O", out)
	flats := map[string]matrix.Mat{
		"X": matrix.RandomDense(20, 20, 0.5, 1.5, 1),
		"U": matrix.RandomDense(20, 5, 0.5, 1.5, 2),
		"V": matrix.RandomDense(20, 5, 0.5, 1.5, 3),
	}
	plan := fullPlan(t, g)
	if fusion.FindOuterMask(plan) != nil {
		t.Fatal("dense driver produced a mask")
	}
	runAndCompare(t, g, flats, &FusedOp{Plan: plan, P: 2, Q: 2, R: 2}, bs)
}

func TestALSLossMaskedAggregation(t *testing.T) {
	// sum((X != 0) * (X - U %*% V)^2): masked path + sum root + R > 1.
	const bs = 5
	g := dag.NewGraph()
	x := g.Input("X", 28, 24, 0.08)
	u := g.Input("U", 28, 9, 1)
	v := g.Input("V", 9, 24, 1)
	pat := g.Binary(matrix.Neq, x, g.Scalar(0))
	diff := g.Binary(matrix.Sub, x, g.MatMul(u, v))
	loss := g.Agg(matrix.SumAll, g.Binary(matrix.Mul, pat, g.Unary("sq", diff)))
	g.SetOutput("loss", loss)
	flats := map[string]matrix.Mat{
		"X": matrix.RandomSparse(28, 24, 0.08, 0.5, 1.5, 4),
		"U": matrix.RandomDense(28, 9, -0.5, 0.5, 5),
		"V": matrix.RandomDense(9, 24, -0.5, 0.5, 6),
	}
	// Fuse everything except pat (X != 0 is external? no - it's an op).
	plan := fullPlan(t, g)
	if plan.Classify() != fusion.MultiAgg {
		t.Fatalf("classified %v", plan.Classify())
	}
	for _, c := range []struct{ p, q, r int }{{1, 1, 1}, {2, 3, 2}} {
		runAndCompare(t, g, flats, &FusedOp{Plan: plan, P: c.p, Q: c.q, R: c.r}, bs)
	}
}

func TestPCARowFusionWithTranspose(t *testing.T) {
	// (X x S)T x X: the plan root is a matmul whose L-side holds a transpose
	// and a nested multiplication.
	const bs = 4
	g := dag.NewGraph()
	x := g.Input("X", 18, 30, 1) // main mm (XS)T x X: 30x18x... voxels
	s := g.Input("S", 30, 3, 1)
	mm1 := g.MatMul(x, s)  // 18x3
	tr := g.Transpose(mm1) // 3x18
	mm2 := g.MatMul(tr, x) // 3x30
	g.SetOutput("O", mm2)
	flats := map[string]matrix.Mat{
		"X": matrix.RandomDense(18, 30, -1, 1, 7),
		"S": matrix.RandomDense(30, 3, -1, 1, 8),
	}
	plan := fullPlan(t, g)
	if plan.MainMM != mm2 {
		t.Fatalf("main mm should be the outer product, got #%d", plan.MainMM.ID)
	}
	for _, c := range []struct{ p, q, r int }{{1, 1, 1}, {1, 4, 3}, {1, 8, 5}} {
		runAndCompare(t, g, flats, &FusedOp{Plan: plan, P: c.p, Q: c.q, R: c.r}, bs)
	}
}

func TestGNMFUpdateNestedMM(t *testing.T) {
	// U * (t(V) %*% X) / (t(V) %*% V %*% U): nested multiplications in
	// O-space, including a doubly nested one.
	const bs = 5
	g := dag.NewGraph()
	v := g.Input("V", 26, 6, 1)
	w := g.Input("W", 26, 6, 1)
	x := g.Input("X", 26, 22, 0.3)
	u := g.Input("U", 6, 22, 1)
	vt1 := g.Transpose(v)
	v1 := g.MatMul(vt1, x)
	vt2 := g.Transpose(w)
	v2 := g.MatMul(vt2, w)
	v4 := g.MatMul(v2, u)
	v3 := g.Binary(matrix.Mul, u, v1)
	v5 := g.Binary(matrix.Div, v3, v4)
	g.SetOutput("U2", v5)
	flats := map[string]matrix.Mat{
		"V": matrix.RandomDense(26, 6, 0.5, 1.5, 9),
		"W": matrix.RandomDense(26, 6, 0.5, 1.5, 19),
		"X": matrix.ToDense(matrix.RandomSparse(26, 22, 0.3, 0.5, 1.5, 10)),
		"U": matrix.RandomDense(6, 22, 0.5, 1.5, 11),
	}
	plan := fullPlan(t, g)
	if plan.MainMM != v1 {
		t.Fatalf("main mm #%d, want #%d", plan.MainMM.ID, v1.ID)
	}
	// The charged flops, measured at c238734, count each retained block —
	// the nested t(W) %*% W above all — once per task, however many of the
	// task's output blocks read it. The main product t(V) %*% X runs a dense
	// block against each of X's 10 CSR blocks, which hold 154 zeros between
	// them; each such block meets the 6 output rows once, and is charged
	// 2·rows·nnz, not 2·rows·k·cols: 2·6·154 = 1848 below the pins of c238734
	// (10632, 15000, 19368) at every (P,Q,R). The member transposes t(V) and
	// t(W) are read in place and charged nothing, where c238734 charged each
	// of their 156 values to every task that read it: t(V)'s to the Q tasks
	// of its L-space, t(W)'s — half of it per output block row when P = 2 —
	// to the P·Q tasks of the output plane: 156+156, 3·156+3·156 and
	// 5·156+10·78 flops.
	for _, c := range []struct {
		p, q, r int
		flops   int64
	}{{1, 1, 1, 10632 - 1848 - 312}, {1, 3, 2, 15000 - 1848 - 936}, {2, 5, 6, 19368 - 1848 - 1560}} {
		cl := runAndCompare(t, g, flats, &FusedOp{Plan: plan, P: c.p, Q: c.q, R: c.r}, bs)
		if got := cl.Stats().Flops; got != c.flops {
			t.Errorf("P=%d Q=%d R=%d: charged %d flops, want %d", c.p, c.q, c.r, got, c.flops)
		}
	}
}

func TestRootTransposeSwapsPlane(t *testing.T) {
	// t(U %*% V) as the plan root: output plane is the transpose of the
	// multiplication plane.
	const bs = 4
	g := dag.NewGraph()
	u := g.Input("U", 14, 6, 1)
	v := g.Input("V", 6, 10, 1)
	mm := g.MatMul(u, v)
	tr := g.Transpose(mm)
	g.SetOutput("O", tr)
	flats := map[string]matrix.Mat{
		"U": matrix.RandomDense(14, 6, -1, 1, 12),
		"V": matrix.RandomDense(6, 10, -1, 1, 13),
	}
	plan := fullPlan(t, g)
	for _, c := range []struct{ p, q, r int }{{2, 2, 1}, {2, 2, 2}} {
		runAndCompare(t, g, flats, &FusedOp{Plan: plan, P: c.p, Q: c.q, R: c.r}, bs)
	}
}

func TestElementwiseCellFusion(t *testing.T) {
	// X * U / V with no matmul: the grid path.
	const bs = 6
	g := dag.NewGraph()
	x := g.Input("X", 25, 19, 0.2)
	u := g.Input("U", 25, 19, 1)
	v := g.Input("V", 25, 19, 1)
	out := g.Binary(matrix.Div, g.Binary(matrix.Mul, x, u), v)
	g.SetOutput("O", out)
	flats := map[string]matrix.Mat{
		"X": matrix.RandomSparse(25, 19, 0.2, 0.5, 1.5, 14),
		"U": matrix.RandomDense(25, 19, 0.5, 1.5, 15),
		"V": matrix.RandomDense(25, 19, 0.5, 1.5, 16),
	}
	plan := fullPlan(t, g)
	if plan.MainMM != nil {
		t.Fatal("unexpected matmul")
	}
	runAndCompare(t, g, flats, &FusedOp{Plan: plan}, bs)
}

func TestRowColSumRoots(t *testing.T) {
	const bs = 5
	for _, agg := range []string{"rowSums", "colSums", "sum", "min", "max"} {
		g := dag.NewGraph()
		u := g.Input("U", 17, 13, 1)
		v := g.Input("V", 13, 11, 1)
		mm := g.MatMul(u, v)
		fn, _ := matrix.ParseAggFunc(agg)
		g.SetOutput("O", g.Agg(fn, mm))
		flats := map[string]matrix.Mat{
			"U": matrix.RandomDense(17, 13, -1, 1, 20),
			"V": matrix.RandomDense(13, 11, -1, 1, 21),
		}
		plan := fullPlan(t, g)
		params := []struct{ p, q, r int }{{2, 2, 1}}
		if fn == matrix.SumAll || fn == matrix.RowSum || fn == matrix.ColSum { // partials combine by addition
			params = append(params, struct{ p, q, r int }{2, 2, 3})
		}
		for _, c := range params {
			runAndCompare(t, g, flats, &FusedOp{Plan: plan, P: c.p, Q: c.q, R: c.r}, bs)
		}
	}
}

func TestVectorBroadcastInFusedKernel(t *testing.T) {
	// (U %*% V) + b with a column-vector bias, the AutoEncoder pattern.
	const bs = 4
	g := dag.NewGraph()
	u := g.Input("U", 15, 7, 1)
	v := g.Input("V", 7, 12, 1)
	b := g.Input("b", 15, 1, 1)
	out := g.Unary("sigmoid", g.Binary(matrix.Add, g.MatMul(u, v), b))
	g.SetOutput("O", out)
	flats := map[string]matrix.Mat{
		"U": matrix.RandomDense(15, 7, -1, 1, 22),
		"V": matrix.RandomDense(7, 12, -1, 1, 23),
		"b": matrix.RandomDense(15, 1, -1, 1, 24),
	}
	plan := fullPlan(t, g)
	for _, c := range []struct{ p, q, r int }{{1, 1, 1}, {3, 3, 2}} {
		runAndCompare(t, g, flats, &FusedOp{Plan: plan, P: c.p, Q: c.q, R: c.r}, bs)
	}
}

func TestCommunicationMetering(t *testing.T) {
	// CFO consolidation traffic follows R|X| + Q|U| + P|V| (up to zero-block
	// skipping); BFO follows |X| + T*sides.
	const bs = 5
	g, flats := nmfGraph(t, 30, 30, 10, 1) // dense X so sizes are exact
	flats["X"] = matrix.RandomDense(30, 30, 0.5, 1.5, 1)
	for _, n := range g.InputNodes() {
		if n.Name == "X" {
			n.Sparsity = 1
		}
	}
	plan := fullPlan(t, g)
	bind := bindInputs(t, g, bs, flats)
	sizeOf := func(name string) int64 {
		for _, in := range g.InputNodes() {
			if in.Name == name {
				return bind[in.ID].SizeBytes()
			}
		}
		t.Fatalf("no input %q", name)
		return 0
	}
	xB, uB, vB := sizeOf("X"), sizeOf("U"), sizeOf("V")

	const P, Q, R = 3, 2, 2
	cl := testCluster(bs)
	if _, err := (&FusedOp{Plan: plan, P: P, Q: Q, R: R}).Execute(cl, bind); err != nil {
		t.Fatal(err)
	}
	got := cl.Stats().ConsolidationBytes
	// L/R-space inputs are replicated Q- and P-fold; the O-space input X is
	// co-partitioned with the output grid and moves nothing (see DESIGN.md).
	_ = xB
	want := int64(Q)*uB + int64(P)*vB
	if got < want*9/10 || got > want*11/10 {
		t.Fatalf("CFO consolidation %d, want ~%d", got, want)
	}
	// The aggregation shuffle carries R partial blocks per output block.
	mmBytes := int64(30 * 30 * 8)
	if agg := cl.Stats().AggregationBytes; agg < mmBytes*R*9/10 || agg > mmBytes*R*11/10 {
		t.Fatalf("aggregation %d, want ~%d", agg, mmBytes*R)
	}

	cl2 := testCluster(bs)
	if _, err := (&FusedOp{Plan: plan, Strategy: Broadcast}).Execute(cl2, bind); err != nil {
		t.Fatal(err)
	}
	tasks := int64(cl2.Stats().Tasks)
	gotB := cl2.Stats().ConsolidationBytes
	wantB := xB + tasks*(uB+vB)
	if gotB < wantB*9/10 || gotB > wantB*11/10 {
		t.Fatalf("BFO consolidation %d, want ~%d (T=%d)", gotB, wantB, tasks)
	}
}

func TestMaskedSparsityExploitationSkipsWork(t *testing.T) {
	// With a very sparse driver, CFO flops must be far below the dense
	// product cost.
	const bs = 10
	g, flats := nmfGraph(t, 60, 60, 20, 0.02)
	plan := fullPlan(t, g)
	cl := testCluster(bs)
	bind := bindInputs(t, g, bs, flats)
	if _, err := (&FusedOp{Plan: plan, P: 2, Q: 2, R: 1}).Execute(cl, bind); err != nil {
		t.Fatal(err)
	}
	denseFlops := int64(2 * 60 * 60 * 20)
	if got := cl.Stats().Flops; got > denseFlops/2 {
		t.Fatalf("flops %d suggest no sparsity exploitation (dense %d)", got, denseFlops)
	}
}

func TestExecuteValidation(t *testing.T) {
	const bs = 5
	g, flats := nmfGraph(t, 20, 20, 5, 0.1)
	plan := fullPlan(t, g)
	cl := testCluster(bs)
	// Missing binding.
	if _, err := (&FusedOp{Plan: plan, P: 1, Q: 1, R: 1}).Execute(cl, Bindings{}); err == nil {
		t.Fatal("missing bindings accepted")
	}
	// Wrong block size.
	badBind := Bindings{}
	for _, in := range g.InputNodes() {
		badBind[in.ID] = block.FromMat(flats[in.Name], bs+1)
	}
	err := (&FusedOp{Plan: plan, P: 1, Q: 1, R: 1}).Execute2(cl, badBind)
	if err == nil || !strings.Contains(err.Error(), "block size") {
		t.Fatalf("bad block size: %v", err)
	}
	// Nil plan.
	if _, err := (&FusedOp{}).Execute(cl, Bindings{}); err == nil {
		t.Fatal("nil plan accepted")
	}
}

// Execute2 adapts Execute for error-only assertions.
func (op *FusedOp) Execute2(cl *cluster.Cluster, bind Bindings) error {
	_, err := op.Execute(cl, bind)
	return err
}

func TestParamsClampedToGrid(t *testing.T) {
	const bs = 10
	g, flats := nmfGraph(t, 20, 20, 10, 0.5)
	plan := fullPlan(t, g)
	// Grid is 2x2x1; request absurd parameters.
	runAndCompare(t, g, flats, &FusedOp{Plan: plan, P: 99, Q: 99, R: 99}, bs)
}

func TestMultiAggSharedInputPattern(t *testing.T) {
	// Multi-aggregation style: sum(U * X) fused with its binary op.
	const bs = 6
	g := dag.NewGraph()
	u := g.Input("U", 21, 17, 1)
	x := g.Input("X", 21, 17, 0.3)
	s := g.Agg(matrix.SumAll, g.Binary(matrix.Mul, u, x))
	g.SetOutput("s", s)
	flats := map[string]matrix.Mat{
		"U": matrix.RandomDense(21, 17, -1, 1, 30),
		"X": matrix.RandomSparse(21, 17, 0.3, -1, 1, 31),
	}
	plan := fullPlan(t, g)
	runAndCompare(t, g, flats, &FusedOp{Plan: plan}, bs)
}
