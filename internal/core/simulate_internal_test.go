package core

import (
	"strings"
	"testing"

	"fuseme/internal/cluster"
	"fuseme/internal/cost"
	"fuseme/internal/dag"
	"fuseme/internal/exec"
	"fuseme/internal/fusion"
	"fuseme/internal/matrix"
)

// chainPlan builds a physical plan of single-operator fragments for
// sq(A) -> log(.) -> exp(.) plus an independent abs(B), lowered for cfg.
func chainPlan(t *testing.T, cfg cluster.Config) *PhysPlan {
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
			Est: cost.OpEstimates{NetBytes: 1000, ComFlops: 1000, MemPerTask: 1000}})
	}
	if err := pp.Lower(cfg); err != nil {
		t.Fatal(err)
	}
	return pp
}

func TestSimulateLevelParallelism(t *testing.T) {
	cfg := cluster.Default()
	cfg.TaskOverhead = 1.0
	cfg.SimTimeLimit = 0
	pp := chainPlan(t, cfg)
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

// TestSimulateRefusesUnloweredPlan: Simulate reads the lowered stages, so a
// plan Lower never saw is an error, as it is for Execute.
func TestSimulateRefusesUnloweredPlan(t *testing.T) {
	pp := chainPlan(t, cluster.Default())
	pp.producers = nil
	if _, err := Simulate(pp, cluster.Default()); err == nil || !strings.Contains(err.Error(), "never lowered") {
		t.Fatalf("Simulate of an unlowered plan: err = %v", err)
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
