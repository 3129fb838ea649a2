package exec

import (
	"math"
	"testing"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/dag"
	"fuseme/internal/fusion"
	"fuseme/internal/matrix"
	"fuseme/internal/ref"
	"fuseme/internal/rt/spec"
)

// multiAggFixture builds sum(U*X) and colSums(X*V) over a shared sparse X.
func multiAggFixture(t testing.TB, bs int) (*dag.Graph, []*fusion.Plan, Bindings, map[string]matrix.Mat) {
	t.Helper()
	g := dag.NewGraph()
	x := g.Input("X", 33, 27, 0.15)
	u := g.Input("U", 33, 27, 1)
	v := g.Input("V", 33, 27, 1)
	m1 := g.Binary(matrix.Mul, u, x)
	s1 := g.Agg(matrix.SumAll, m1)
	m2 := g.Binary(matrix.Mul, x, v)
	s2 := g.Agg(matrix.ColSum, m2)
	g.SetOutput("s1", s1)
	g.SetOutput("s2", s2)

	p1, err := fusion.NewPlan(s1, map[int]*dag.Node{s1.ID: s1, m1.ID: m1})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := fusion.NewPlan(s2, map[int]*dag.Node{s2.ID: s2, m2.ID: m2})
	if err != nil {
		t.Fatal(err)
	}
	flats := map[string]matrix.Mat{
		"X": matrix.RandomSparse(33, 27, 0.15, -1, 1, 1),
		"U": matrix.RandomDense(33, 27, -1, 1, 2),
		"V": matrix.RandomDense(33, 27, -1, 1, 3),
	}
	bind := Bindings{
		x.ID: block.FromMat(flats["X"], bs),
		u.ID: block.FromMat(flats["U"], bs),
		v.ID: block.FromMat(flats["V"], bs),
	}
	return g, []*fusion.Plan{p1, p2}, bind, flats
}

func TestMultiAggOpExecute(t *testing.T) {
	const bs = 7
	g, plans, bind, flats := multiAggFixture(t, bs)
	cl := testCluster(bs)
	op := &MultiAggOp{Plans: plans}
	outs, err := op.Execute(cl, bind)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Evaluate(g, flats)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(outs[0].At(0, 0)-want["s1"].At(0, 0)) > 1e-9 {
		t.Fatalf("s1 = %v, want %v", outs[0].At(0, 0), want["s1"].At(0, 0))
	}
	if !matrix.EqualApprox(outs[1].ToMat(), want["s2"], 1e-9) {
		t.Fatal("s2 mismatch")
	}
	if cl.Stats().Stages != 1 {
		t.Fatalf("stages = %d, want 1", cl.Stats().Stages)
	}
}

func TestMultiAggSharedScanSavesConsolidation(t *testing.T) {
	const bs = 7
	_, plans, bind, _ := multiAggFixture(t, bs)
	// Fused: one operator.
	clFused := testCluster(bs)
	if _, err := (&MultiAggOp{Plans: plans}).Execute(clFused, bind); err != nil {
		t.Fatal(err)
	}
	// Separate: each plan on its own (X fetched by both).
	clSep := testCluster(bs)
	for _, p := range plans {
		if _, err := (&FusedOp{Plan: p}).Execute(clSep, bind); err != nil {
			t.Fatal(err)
		}
	}
	// Inputs here are all plane-shaped (co-partitioned) so consolidation is
	// zero either way; the savings show in stages and duplicated fetches is
	// covered by memory: the fused run holds X once per task.
	if clFused.Stats().Stages >= clSep.Stats().Stages {
		t.Fatalf("fused stages %d >= separate %d", clFused.Stats().Stages, clSep.Stats().Stages)
	}
}

// TestMultiAggSpecStageFetchesSharedInputOnce: on a worker a shipped
// multi-aggregation stage evaluates both plans over one leaf memo, so every
// block a task needs — those of X, which both aggregations consume, included —
// is requested from the coordinator once; and what the tasks emit, folded in
// task order by output index, is the in-process result bit for bit.
func TestMultiAggSpecStageFetchesSharedInputOnce(t *testing.T) {
	const bs = 7
	_, plans, bind, _ := multiAggFixture(t, bs)
	cl := testCluster(bs)
	want, err := (&MultiAggOp{Plans: plans}).Execute(cl, bind)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := (&MultiAggOp{Plans: plans}).Lower(cl.Config())
	if err != nil {
		t.Fatal(err)
	}
	sp := lo.Stages[0].Spec
	stage, err := NewSpecStage(&sp)
	if err != nil {
		t.Fatal(err)
	}
	sinks := []*aggSink{
		{agg: plans[0].Root.Agg, out: block.New(1, 1, bs)},
		{agg: plans[1].Root.Agg, out: block.New(1, 27, bs)},
	}
	for task := 0; task < sp.NumTasks; task++ {
		asked := map[spec.BlockRef]int{}
		fetch := func(ref spec.BlockRef) (matrix.Mat, error) {
			asked[ref]++
			return bindSource{bind: bind}.fetch(ref)
		}
		emit := func(kind uint8, bi, bj int, blk matrix.Mat) error {
			sinks[aggOutput(kind)].combine(bi, bj, blk)
			return nil
		}
		if err := stage.RunTask(&cluster.Task{ID: task}, fetch, nil, emit); err != nil {
			t.Fatal(err)
		}
		blocks := (sp.GI*sp.GJ - task + sp.NumTasks - 1) / sp.NumTasks
		if len(asked) != 3*blocks { // X, U and V at each block of the task's stride
			t.Errorf("task %d asked for %d distinct blocks, want %d", task, len(asked), 3*blocks)
		}
		for ref, n := range asked {
			if n != 1 {
				t.Errorf("task %d asked %d times for %+v", task, n, ref)
			}
		}
	}
	for i := range want {
		for j := 0; j < want[i].Cols; j++ {
			if got, w := sinks[i].out.At(0, j), want[i].At(0, j); math.Float64bits(got) != math.Float64bits(w) {
				t.Errorf("output %d column %d: %v from the shipped stage, %v in process", i, j, got, w)
			}
		}
	}
}

func TestMultiAggValidate(t *testing.T) {
	const bs = 7
	g, plans, _, _ := multiAggFixture(t, bs)
	// Too few plans.
	if err := (&MultiAggOp{Plans: plans[:1]}).Validate(); err == nil {
		t.Fatal("single plan accepted")
	}
	// Non-aggregation root.
	x := g.Outputs()["s1"].Inputs[0] // the b(*) node... build a bad plan
	bad, err := fusion.NewPlan(x, map[int]*dag.Node{x.ID: x})
	if err == nil {
		if err := (&MultiAggOp{Plans: []*fusion.Plan{plans[0], bad}}).Validate(); err == nil {
			t.Fatal("non-agg plan accepted")
		}
	}
	// Plane mismatch.
	g2 := dag.NewGraph()
	a := g2.Input("A", 5, 5, 1)
	sa := g2.Agg(matrix.SumAll, g2.Unary("sq", a))
	g2.SetOutput("s", sa)
	p3, err := fusion.NewPlan(sa, map[int]*dag.Node{sa.ID: sa, sa.Inputs[0].ID: sa.Inputs[0]})
	if err != nil {
		t.Fatal(err)
	}
	if err := (&MultiAggOp{Plans: []*fusion.Plan{plans[0], p3}}).Validate(); err == nil {
		t.Fatal("plane mismatch accepted")
	}
}

// TestZeroBlockArithmetic exercises the nil-block fast paths: matrices with
// entire zero regions flowing through add/sub/mul/div and scalar ops.
func TestZeroBlockArithmetic(t *testing.T) {
	const bs = 5
	g := dag.NewGraph()
	x := g.Input("X", 20, 20, 0.05)
	y := g.Input("Y", 20, 20, 0.05)
	d := g.Input("D", 20, 20, 1)
	expr := g.Binary(matrix.Add, g.Binary(matrix.Sub, x, y), g.Binary(matrix.Mul, y, d))
	expr = g.Binary(matrix.Sub, expr, g.Binary(matrix.Div, x, g.Scalar(2)))
	expr = g.Binary(matrix.MaxOp, expr, g.Scalar(-0.5))
	g.SetOutput("O", expr)

	// X and Y concentrated in opposite corners: most block pairs have at
	// least one nil operand.
	xf := matrix.NewDense(20, 20)
	yf := matrix.NewDense(20, 20)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			xf.Set(i, j, float64(i+j+1))
			yf.Set(19-i, 19-j, float64(i-j)+0.5)
		}
	}
	flats := map[string]matrix.Mat{
		"X": matrix.ToCSR(xf), "Y": matrix.ToCSR(yf),
		"D": matrix.RandomDense(20, 20, 0.5, 1.5, 9),
	}
	members := map[int]*dag.Node{}
	for _, n := range g.Nodes() {
		if !n.IsLeaf() {
			members[n.ID] = n
		}
	}
	plan, err := fusion.NewPlan(expr, members)
	if err != nil {
		t.Fatal(err)
	}
	bind := Bindings{}
	for _, in := range g.InputNodes() {
		bind[in.ID] = block.FromMat(flats[in.Name], bs)
	}
	cl := testCluster(bs)
	got, err := (&FusedOp{Plan: plan}).Execute(cl, bind)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Evaluate(g, flats)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApprox(got.ToMat(), want["O"], 1e-12) {
		t.Fatal("zero-block arithmetic mismatch")
	}
}

// TestVectorPlusZeroBlock: a zero main block plus a broadcast vector must
// expand the vector to the full block (broadcastIfNeeded).
func TestVectorPlusZeroBlock(t *testing.T) {
	const bs = 4
	g := dag.NewGraph()
	x := g.Input("X", 12, 12, 0.05)
	b := g.Input("b", 12, 1, 1)
	out := g.Binary(matrix.Add, x, b)
	g.SetOutput("O", out)
	xf := matrix.NewCSR(12, 12) // entirely zero: every block nil
	bf := matrix.RandomDense(12, 1, -1, 1, 4)
	plan, err := fusion.NewPlan(out, map[int]*dag.Node{out.ID: out})
	if err != nil {
		t.Fatal(err)
	}
	bind := Bindings{x.ID: block.FromMat(xf, bs), b.ID: block.FromMat(bf, bs)}
	cl := testCluster(bs)
	got, err := (&FusedOp{Plan: plan}).Execute(cl, bind)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			if math.Abs(got.At(i, j)-bf.At(i, 0)) > 1e-15 {
				t.Fatalf("(%d,%d) = %v, want %v", i, j, got.At(i, j), bf.At(i, 0))
			}
		}
	}
}
