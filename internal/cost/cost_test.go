package cost

import (
	"math"
	"testing"

	"fuseme/internal/cluster"
	"fuseme/internal/dag"
	"fuseme/internal/fusion"
	"fuseme/internal/matrix"
)

func planOf(t testing.TB, root *dag.Node, members ...*dag.Node) *fusion.Plan {
	t.Helper()
	m := map[int]*dag.Node{root.ID: root}
	for _, n := range members {
		m[n.ID] = n
	}
	p, err := fusion.NewPlan(root, m)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// nmfPlan builds the X * log(U x t(V) + eps) plan used throughout the paper.
func nmfPlan(t testing.TB) (p *fusion.Plan, x, u, v, tr, mm, add, lg, mul *dag.Node) {
	t.Helper()
	g := dag.NewGraph()
	x = g.Input("X", 5000, 4000, 0.001)
	u = g.Input("U", 5000, 2000, 1)
	v = g.Input("V", 4000, 2000, 1)
	tr = g.Transpose(v)
	mm = g.MatMul(u, tr)
	add = g.Binary(matrix.Add, mm, g.Scalar(1e-3))
	lg = g.Unary("log", add)
	mul = g.Binary(matrix.Mul, x, lg)
	g.SetOutput("O", mul)
	p = planOf(t, mul, tr, mm, add, lg)
	return
}

func TestProdSumEval(t *testing.T) {
	var l ProdSum
	l.C[0] = 7    // constant
	l.C[1] = 2    // *P
	l.C[2] = 3    // *Q
	l.C[4] = 5    // *R
	l.C[1|4] = 11 // *P*R
	if got := l.Eval(1, 1, 1); got != 28 {
		t.Fatalf("Eval(1,1,1) = %v", got)
	}
	if got := l.Eval(2, 3, 4); got != 7+2*2+3*3+5*4+11*8 {
		t.Fatalf("Eval(2,3,4) = %v", got)
	}
}

func TestInvSumEval(t *testing.T) {
	var v InvSum
	v.C[0] = 10     // constant
	v.C[1] = 12     // /P
	v.C[1|2] = 24   // /(P*Q)
	v.C[1|2|4] = 48 // /(P*Q*R)
	got := v.Eval(2, 3, 4)
	want := 10.0 + 12.0/2 + 24.0/6 + 48.0/24
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Eval = %v, want %v", got, want)
	}
}

func TestAnalyzeNMFMatchesTable1(t *testing.T) {
	p, x, u, v, tr, mm, add, lg, mul := nmfPlan(t)
	e := Analyze(p, 1000)
	if e.I != 5 || e.J != 4 || e.K != 2 {
		t.Fatalf("grid %d,%d,%d", e.I, e.J, e.K)
	}
	_ = mm
	for _, c := range []struct{ P, Q, R int }{{1, 1, 1}, {3, 4, 2}, {5, 4, 2}} {
		P, Q, R := float64(c.P), float64(c.Q), float64(c.R)
		// Table 1, CFO row adapted to the executor's staging: L/R inputs
		// replicate Q- and P-fold; the O-space input X is fetched once; the
		// R>1 aggregation shuffles (R-1) masked partial blocks.
		aggOut := float64(x.EstNNZ() * 16)
		// X is co-partitioned with the output plane (measured CFO comm in
		// Figures 12(e)-(g) sits below Table 1's R|X| term); the eps scalar
		// still consolidates.
		wantNet := 8 + Q*float64(u.EstSizeBytes()) + P*float64(v.EstSizeBytes()) +
			(R-1)*aggOut
		if got := e.NetBytes.Eval(c.P, c.Q, c.R); math.Abs(got-wantNet) > 1 {
			t.Errorf("(%d,%d,%d): net %v, want %v", c.P, c.Q, c.R, got, wantNet)
		}
		// Mem per task: |U|/(PR) + |V|/(QR) + (|X|+8+|out|)/(PQ).
		wantMem := float64(u.EstSizeBytes())/(P*R) + float64(v.EstSizeBytes())/(Q*R) +
			(float64(x.EstSizeBytes()+8)+float64(mul.EstSizeBytes()))/(P*Q)
		if got := e.MemBytes.Eval(c.P, c.Q, c.R); math.Abs(got-wantMem) > 1 {
			t.Errorf("(%d,%d,%d): mem %v, want %v", c.P, c.Q, c.R, got, wantMem)
		}
		// Com: masked mm once + P*transpose + O-space chain once.
		maskedMM := float64(2 * x.EstNNZ() * int64(u.Cols))
		wantCom := maskedMM + P*float64(tr.EstFlops()) +
			float64(add.EstFlops()+lg.EstFlops()+mul.EstFlops())
		if got := e.ComFlops.Eval(c.P, c.Q, c.R); math.Abs(got-wantCom) > 1 {
			t.Errorf("(%d,%d,%d): com %v, want %v", c.P, c.Q, c.R, got, wantCom)
		}
	}
}

func TestAnalyzeMonotonicity(t *testing.T) {
	p, _, _, _, _, _, _, _, _ := nmfPlan(t)
	e := Analyze(p, 1000)
	// Net and Com are nondecreasing in each axis; Mem nonincreasing.
	base := [3]int{2, 2, 1}
	for axis := 0; axis < 3; axis++ {
		hi := base
		hi[axis]++
		if e.NetBytes.Eval(hi[0], hi[1], hi[2]) < e.NetBytes.Eval(base[0], base[1], base[2]) {
			t.Errorf("net decreased along axis %d", axis)
		}
		if e.ComFlops.Eval(hi[0], hi[1], hi[2]) < e.ComFlops.Eval(base[0], base[1], base[2]) {
			t.Errorf("com decreased along axis %d", axis)
		}
		if e.MemBytes.Eval(hi[0], hi[1], hi[2]) > e.MemBytes.Eval(base[0], base[1], base[2]) {
			t.Errorf("mem increased along axis %d", axis)
		}
	}
}

func TestModelCostIsMax(t *testing.T) {
	p, _, _, _, _, _, _, _, _ := nmfPlan(t)
	e := Analyze(p, 1000)
	cc := cluster.Default()
	net := e.NetBytes.Eval(2, 2, 1) / (8 * 125e6)
	com := e.ComFlops.Eval(2, 2, 1) / (8 * 546e9)
	want := math.Max(net, com)
	if got := Cost(cc, e, 2, 2, 1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Cost = %v, want %v", got, want)
	}
}

func TestMemOK(t *testing.T) {
	p, _, _, _, _, _, _, _, _ := nmfPlan(t)
	e := Analyze(p, 1000)
	need := int64(e.MemBytes.Eval(1, 1, 1))
	cc := cluster.Config{Nodes: 8, NetBandwidth: 1, CompBandwidth: 1, TaskMemBytes: need + 100}
	if !MemOK(cc, e, 1, 1, 1) {
		t.Fatal("should fit")
	}
	cc.TaskMemBytes = need - 100
	if MemOK(cc, e, 1, 1, 1) {
		t.Fatal("should not fit")
	}
	// Larger partitions shrink per-task memory.
	if !MemOK(cc, e, 5, 4, 2) {
		t.Fatal("partitioned plan should fit")
	}
}

func TestAnalyzeNestedGNMF(t *testing.T) {
	// GNMF U-update with the nested chain (t(V) x V) x U in O-space.
	g := dag.NewGraph()
	v := g.Input("V", 10000, 200, 1)
	w := g.Input("W", 10000, 200, 1)
	x := g.Input("X", 10000, 8000, 0.01)
	u := g.Input("U", 200, 8000, 1)
	vt1 := g.Transpose(v)
	v1 := g.MatMul(vt1, x)
	vt2 := g.Transpose(w)
	v2 := g.MatMul(vt2, w)
	v4 := g.MatMul(v2, u)
	v3 := g.Binary(matrix.Mul, u, v1)
	v5 := g.Binary(matrix.Div, v3, v4)
	g.SetOutput("U2", v5)
	p := planOf(t, v5, vt1, v1, vt2, v2, v4, v3)
	e := Analyze(p, 1000)
	// Grid of the main mm (t(V) x X): I=1 (200 rows), J=8, K=10.
	if e.I != 1 || e.J != 8 || e.K != 10 {
		t.Fatalf("grid %d,%d,%d", e.I, e.J, e.K)
	}
	// All three estimates positive and finite.
	for _, c := range []struct{ P, Q, R int }{{1, 1, 1}, {1, 4, 5}} {
		if e.NetBytes.Eval(c.P, c.Q, c.R) <= 0 || e.ComFlops.Eval(c.P, c.Q, c.R) <= 0 ||
			e.MemBytes.Eval(c.P, c.Q, c.R) <= 0 {
			t.Fatalf("non-positive estimate at %+v", c)
		}
	}
	// W feeds the nested chain twice and U feeds the nested v4; v3's other
	// U occurrence is co-partitioned with the output plane and free.
	// Net at (1,1,1) must cover the remaining input occurrences.
	minNet := float64(v.EstSizeBytes() + w.EstSizeBytes()*2 + x.EstSizeBytes() + u.EstSizeBytes())
	if got := e.NetBytes.Eval(1, 1, 1); got < minNet {
		t.Fatalf("net(1,1,1) = %v < inputs %v", got, minNet)
	}
}

func TestAnalyzePanicsWithoutMM(t *testing.T) {
	g := dag.NewGraph()
	a := g.Input("A", 10, 10, 1)
	sq := g.Unary("sq", a)
	g.SetOutput("O", sq)
	p := planOf(t, sq)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Analyze(p, 1000)
}

func TestElementwiseEstimates(t *testing.T) {
	g := dag.NewGraph()
	a := g.Input("A", 1000, 1000, 1)
	b := g.Input("B", 1000, 1000, 1)
	add := g.Binary(matrix.Add, a, b)
	sq := g.Unary("sq", add)
	g.SetOutput("O", sq)
	p := planOf(t, sq, add)
	est := ElementwiseEstimates(p, 10)
	net, com, mem := est.NetBytes, est.ComFlops, est.MemPerTask
	// Both inputs are shaped like the output plane: co-partitioned, free.
	if net != 0 {
		t.Fatalf("net = %d, want 0 (co-partitioned maps shuffle nothing)", net)
	}
	if com != add.EstFlops()+sq.EstFlops() {
		t.Fatalf("com = %d", com)
	}
	wantMem := (a.EstSizeBytes()+b.EstSizeBytes()+sq.EstSizeBytes())/10 + 1
	if mem != wantMem {
		t.Fatalf("mem = %d, want %d", mem, wantMem)
	}
	// A transposed input is not co-partitioned and transfers.
	g2 := dag.NewGraph()
	c := g2.Input("C", 1000, 500, 1)
	d := g2.Input("D", 500, 1000, 1)
	mixed := g2.Binary(matrix.Add, g2.Transpose(c), d)
	g2.SetOutput("O", mixed)
	p2 := planOf(t, mixed, mixed.Inputs[0])
	net2 := ElementwiseEstimates(p2, 10).NetBytes
	if net2 != c.EstSizeBytes() {
		t.Fatalf("net = %d, want transposed input size %d", net2, c.EstSizeBytes())
	}
}

func TestBFOEstimatesMatchTable1(t *testing.T) {
	p, x, u, v, _, _, _, _, _ := nmfPlan(t)
	const tasks = 96
	est := BFOEstimates(p, tasks)
	net, com, mem := est.NetBytes, est.ComFlops, est.MemPerTask
	// X is the main matrix (most cells); U, V and the scalar broadcast.
	sides := u.EstSizeBytes() + v.EstSizeBytes() + 8
	if net != x.EstSizeBytes()+tasks*sides {
		t.Fatalf("net = %d", net)
	}
	wantMem := x.EstSizeBytes()/tasks + sides + p.Root.EstSizeBytes()/tasks
	if mem != wantMem {
		t.Fatalf("mem = %d, want %d", mem, wantMem)
	}
	if com <= 0 {
		t.Fatal("com not positive")
	}
}

func TestRFOEquivalentToIJ1(t *testing.T) {
	p, _, _, _, _, _, _, _, _ := nmfPlan(t)
	e := Analyze(p, 1000)
	est := RFOEstimates(p, 1000)
	net, com, mem := est.NetBytes, est.ComFlops, est.MemPerTask
	if net != int64(e.NetBytes.Eval(e.I, e.J, 1)) {
		t.Fatal("RFO net mismatch")
	}
	if com != int64(e.ComFlops.Eval(e.I, e.J, 1)) {
		t.Fatal("RFO com mismatch")
	}
	if mem != int64(e.MemBytes.Eval(e.I, e.J, 1)) {
		t.Fatal("RFO mem mismatch")
	}
}

func TestBFOvsRFOvsCFOOrdering(t *testing.T) {
	// The relationships of Figure 9: BFO has the lowest net cost but the
	// highest memory; RFO the highest net cost with low memory; a moderate
	// CFO candidate sits between them on both axes.
	p, _, _, _, _, _, _, _, _ := nmfPlan(t)
	e := Analyze(p, 1000)
	bfo, rfo := BFOEstimates(p, 96), RFOEstimates(p, 1000)
	bfoNet, bfoMem, rfoNet, rfoMem := bfo.NetBytes, bfo.MemPerTask, rfo.NetBytes, rfo.MemPerTask
	cfoNet := int64(e.NetBytes.Eval(3, 2, 1))
	cfoMem := int64(e.MemBytes.Eval(3, 2, 1))
	if !(bfoNet > 0 && rfoNet > cfoNet) {
		t.Fatalf("net ordering rfo %d > cfo %d violated", rfoNet, cfoNet)
	}
	if !(bfoMem > cfoMem && cfoMem > rfoMem) {
		t.Fatalf("mem ordering bfo %d > cfo %d > rfo %d violated", bfoMem, cfoMem, rfoMem)
	}
}

func TestMainInput(t *testing.T) {
	p, x, _, _, _, _, _, _, _ := nmfPlan(t)
	if MainInput(p) != x {
		t.Fatalf("main input = %v", MainInput(p).Name)
	}
}

// TestAggregationShareOfNet: each estimate function names the aggregation
// share of the network bytes it counts, once — an R>1 multiplication's
// (R-1) partial outputs, a root aggregation's partial aggregate per task —
// and adds nothing for it on top.
func TestAggregationShareOfNet(t *testing.T) {
	g := dag.NewGraph()
	u := g.Input("U", 5000, 1000, 1)
	v := g.Input("V", 1000, 5000, 1)
	mm := g.MatMul(u, v)
	g.SetOutput("O", mm)
	e := Analyze(planOf(t, mm), 1000)
	r3, r1 := e.At(2, 2, 3), e.At(2, 2, 1)
	if r3.AggBytes != 2*mm.EstSizeBytes() || r1.AggBytes != 0 {
		t.Fatalf("cuboid aggregation share: R=3 %d, R=1 %d; want %d and 0", r3.AggBytes, r1.AggBytes, 2*mm.EstSizeBytes())
	}
	if got := r3.NetBytes - r1.NetBytes; got != r3.AggBytes {
		t.Fatalf("R=3 adds %d net bytes over R=1, its aggregation share is %d", got, r3.AggBytes)
	}

	// A root aggregation: one partial aggregate per task, inside the net,
	// for a broadcast operator as for a map.
	const tasks = 10
	p, _, _, _, _, _, _, _, _ := nmfPlan(t)
	bfo := BFOEstimates(p, tasks)
	if bfo.AggBytes != 0 {
		t.Fatal("a BFO without a root aggregation names an aggregation share")
	}
	g1 := dag.NewGraph()
	tr := g1.Transpose(g1.Input("V", 4000, 2000, 1))
	mm2 := g1.MatMul(g1.Input("U", 5000, 2000, 1), tr)
	add := g1.Binary(matrix.Add, mm2, g1.Scalar(1e-3))
	lg := g1.Unary("log", add)
	mul := g1.Binary(matrix.Mul, g1.Input("X", 5000, 4000, 0.001), lg)
	sum := g1.Agg(matrix.SumAll, mul)
	g1.SetOutput("s", sum)
	summed := BFOEstimates(planOf(t, sum, mul, tr, mm2, add, lg), tasks)
	if want := tasks * sum.EstSizeBytes(); summed.AggBytes != want || summed.NetBytes != bfo.NetBytes+want {
		t.Fatalf("BFO under sum: agg %d net %d, want %d and %d", summed.AggBytes, summed.NetBytes, want, bfo.NetBytes+want)
	}
	g2 := dag.NewGraph()
	a := g2.Input("A", 1000, 1000, 1)
	sum2 := g2.Agg(matrix.SumAll, g2.Unary("sq", a))
	g2.SetOutput("s", sum2)
	ew := ElementwiseEstimates(planOf(t, sum2, sum2.Inputs[0]), tasks)
	if ew.AggBytes != tasks*sum2.EstSizeBytes() || ew.NetBytes != ew.AggBytes {
		t.Fatalf("element-wise sum: agg %d net %d, want both %d", ew.AggBytes, ew.NetBytes, tasks*sum2.EstSizeBytes())
	}
}
