package core

import (
	"testing"

	"fuseme/internal/cluster"
	"fuseme/internal/dag"
	"fuseme/internal/exec"
	"fuseme/internal/fusion"
	"fuseme/internal/matrix"
)

// chainPlan builds a physical plan of single-operator fragments for
// sq(A) -> log(.) -> exp(.) plus an independent abs(B).
func chainPlan(t *testing.T) *PhysPlan {
	t.Helper()
	g := dag.NewGraph()
	a := g.Input("A", 100, 100, 1)
	b := g.Input("B", 100, 100, 1)
	n1 := g.Unary("sq", a)
	n2 := g.Unary("log", n1)
	n3 := g.Unary("exp", n2)
	n4 := g.Unary("abs", b)
	g.SetOutput("O", n3)
	g.SetOutput("P", n4)
	pp := &PhysPlan{Graph: g}
	for _, n := range []*dag.Node{n1, n2, n3, n4} {
		p, err := fusion.NewPlan(n, map[int]*dag.Node{n.ID: n})
		if err != nil {
			t.Fatal(err)
		}
		pp.Ops = append(pp.Ops, &PhysOp{Plan: p, Strategy: exec.Cuboid, Kind: "Map",
			EstNetBytes: 1000, EstComFlops: 1000, EstMemPerTask: 1000})
	}
	return pp
}

func TestOpLevels(t *testing.T) {
	pp := chainPlan(t)
	levels := opLevels(pp)
	want := []int{0, 1, 2, 0} // chain depths; abs(B) independent at level 0
	for i, op := range pp.Ops {
		if levels[op] != want[i] {
			t.Errorf("op %d: level %d, want %d", i, levels[op], want[i])
		}
	}
}

func TestSimulateLevelParallelism(t *testing.T) {
	cfg := cluster.Default()
	cfg.TaskOverhead = 1.0
	cfg.SimTimeLimit = 0
	pp := chainPlan(t)
	s, err := Simulate(pp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Four operators but only three dependency levels: the independent
	// abs(B) overlaps with level 0, so overhead is charged three times.
	if s.Stages != 4 {
		t.Fatalf("stages = %d", s.Stages)
	}
	if s.SimSeconds < 3 || s.SimSeconds >= 4 {
		t.Fatalf("sim time %v, want about 3 (three levels of 1s overhead)", s.SimSeconds)
	}
}

func TestEstAggregationBytes(t *testing.T) {
	g := dag.NewGraph()
	u := g.Input("U", 5000, 1000, 1)
	v := g.Input("V", 1000, 5000, 1)
	mm := g.MatMul(u, v)
	g.SetOutput("O", mm)
	p, err := fusion.NewPlan(mm, map[int]*dag.Node{mm.ID: mm})
	if err != nil {
		t.Fatal(err)
	}
	op := &PhysOp{Plan: p, Strategy: exec.Cuboid, P: 2, Q: 2, R: 3}
	got := estAggregationBytes(op, 12)
	if want := 3 * mm.EstSizeBytes(); got != want {
		t.Fatalf("agg = %d, want %d", got, want)
	}
	op.R = 1
	if got := estAggregationBytes(op, 4); got != 0 {
		t.Fatalf("R=1 agg = %d, want 0", got)
	}
	// Broadcast strategy shuffles no partials.
	op.R = 3
	op.Strategy = exec.Broadcast
	if got := estAggregationBytes(op, 4); got != 0 {
		t.Fatalf("broadcast agg = %d, want 0", got)
	}
}

func TestEstTasks(t *testing.T) {
	g := dag.NewGraph()
	u := g.Input("U", 5000, 1000, 1)
	v := g.Input("V", 1000, 5000, 1)
	mm := g.MatMul(u, v)
	g.SetOutput("O", mm)
	p, _ := fusion.NewPlan(mm, map[int]*dag.Node{mm.ID: mm})
	cfg := cluster.Default()
	if got := estTasks(&PhysOp{Plan: p, Strategy: exec.Cuboid, P: 3, Q: 4, R: 2}, cfg); got != 24 {
		t.Fatalf("cuboid tasks = %d", got)
	}
	if got := estTasks(&PhysOp{Plan: p, Strategy: exec.Broadcast}, cfg); got != cfg.TotalSlots() {
		t.Fatalf("broadcast tasks = %d", got)
	}
}

func TestUseBFORules(t *testing.T) {
	g := dag.NewGraph()
	// Large sparse main, small sides, big grid: BFO (the Figure 12(a) case).
	x := g.Input("X", 100_000, 100_000, 0.001)
	u := g.Input("U", 100_000, 2_000, 1)
	mul := g.Binary(matrix.Mul, x, g.MatMul(u, g.Transpose(g.Input("V", 100_000, 2_000, 1))))
	g.SetOutput("O", mul)
	members := map[int]*dag.Node{}
	for _, n := range g.Nodes() {
		if !n.IsLeaf() {
			members[n.ID] = n
		}
	}
	p, err := fusion.NewPlan(mul, members)
	if err != nil {
		t.Fatal(err)
	}
	gi, gj, _ := p.BlockGridDims(1000)
	if !useBFO(p, gi, gj) {
		t.Fatal("sparse main with large grid should broadcast")
	}
	// Trivially small grid: shuffle-based (CPMM) regardless.
	g2 := dag.NewGraph()
	a := g2.Input("A", 200, 500_000, 1)
	b := g2.Input("B", 500_000, 200, 1)
	mm2 := g2.MatMul(a, b)
	g2.SetOutput("O", mm2)
	p2, err := fusion.NewPlan(mm2, map[int]*dag.Node{mm2.ID: mm2})
	if err != nil {
		t.Fatal(err)
	}
	if useBFO(p2, 1, 1) {
		t.Fatal("k x k output should use the shuffle-based operator")
	}
}
