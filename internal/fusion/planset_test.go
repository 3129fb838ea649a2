package fusion

import (
	"strings"
	"testing"

	"fuseme/internal/dag"
	"fuseme/internal/matrix"
)

func TestTypeAndSpaceStrings(t *testing.T) {
	for typ, want := range map[Type]string{
		Cell: "Cell", Row: "Row", Outer: "Outer", MultiAgg: "Multi-aggregation", Type(99): "Type(99)",
	} {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(typ), got, want)
		}
	}
	for sp, want := range map[Space]string{
		SpaceMM: "MM", SpaceL: "L", SpaceR: "R", SpaceO: "O", Space(42): "Space(42)",
	} {
		if got := sp.String(); got != want {
			t.Errorf("space %d = %q, want %q", int(sp), got, want)
		}
	}
}

func TestRuleForMarksOutputs(t *testing.T) {
	g := dag.NewGraph()
	a := g.Input("A", 10, 10, 1)
	mid := g.Unary("sq", a)
	top := g.Unary("log", mid)
	g.SetOutput("MID", mid) // an output that is also consumed
	g.SetOutput("TOP", top)
	rule := RuleFor(g, 1<<40)
	if !rule.IsTermination(mid) {
		t.Fatal("consumed output not a termination operator")
	}
	if rule.IsTermination(top) {
		t.Fatal("pure root flagged as termination")
	}
}

func TestCellFuseChains(t *testing.T) {
	g := dag.NewGraph()
	a := g.Input("A", 50, 50, 1)
	b := g.Input("B", 50, 50, 1)
	add := g.Binary(matrix.Add, a, b)
	sq := g.Unary("sq", add)
	tr := g.Transpose(sq)
	g.SetOutput("O", tr)
	rule := RuleFor(g, 1<<40)
	used := map[int]bool{}
	plans := CellFuse(g, used, rule)
	if len(plans) != 1 {
		t.Fatalf("%d plans, want 1 fused chain", len(plans))
	}
	if plans[0].Size() != 3 || plans[0].Root != tr {
		t.Fatalf("chain plan %v", plans[0])
	}
	for _, id := range plans[0].MemberIDs() {
		if !used[id] {
			t.Fatal("used map not updated")
		}
	}
	// Second call finds nothing left.
	if rest := CellFuse(g, used, rule); len(rest) != 0 {
		t.Fatalf("re-fusion produced %d plans", len(rest))
	}
}

func TestCellFuseStopsAtTermination(t *testing.T) {
	g := dag.NewGraph()
	a := g.Input("A", 50, 50, 1)
	shared := g.Unary("sq", a) // two consumers: termination
	l := g.Unary("log", shared)
	e := g.Unary("exp", shared)
	g.SetOutput("L", l)
	g.SetOutput("E", e)
	rule := RuleFor(g, 1<<40)
	used := map[int]bool{}
	plans := CellFuse(g, used, rule)
	// Three plans: {l}, {e}, {shared} — the shared node fuses with nobody
	// but still runs as its own (seeded) chain.
	if len(plans) != 3 {
		t.Fatalf("%d plans: %v", len(plans), plans)
	}
	for _, p := range plans {
		if p.Size() != 1 {
			t.Fatalf("plan %v should be singleton", p)
		}
	}
}

func TestSingletonsAndValidate(t *testing.T) {
	g := dag.NewGraph()
	a := g.Input("A", 20, 10, 1)
	b := g.Input("B", 10, 20, 1)
	mm := g.MatMul(a, b)
	sum := g.Agg(matrix.SumAll, mm)
	g.SetOutput("S", sum)
	used := map[int]bool{}
	plans := Singletons(g, used)
	if len(plans) != 2 {
		t.Fatalf("%d singletons", len(plans))
	}
	var set Set
	set.Plans = plans
	set.Sort()
	if set.Plans[0].Root != mm || set.Plans[1].Root != sum {
		t.Fatal("Sort not topological")
	}
	if err := set.Validate(g); err != nil {
		t.Fatal(err)
	}
	// A set missing an operator fails validation.
	var partial Set
	partial.Plans = plans[:1]
	if err := partial.Validate(g); err == nil || !strings.Contains(err.Error(), "not covered") {
		t.Fatalf("validate: %v", err)
	}
	// A set covering an operator twice fails validation.
	var double Set
	double.Plans = append(append([]*Plan{}, plans...), plans[0])
	if err := double.Validate(g); err == nil || !strings.Contains(err.Error(), "covered by 2") {
		t.Fatalf("validate: %v", err)
	}
}

func TestSingletonsSkipUnreachable(t *testing.T) {
	g := dag.NewGraph()
	a := g.Input("A", 5, 5, 1)
	used := g.Unary("sq", a)
	g.Unary("log", a) // dangling
	g.SetOutput("O", used)
	plans := Singletons(g, map[int]bool{})
	if len(plans) != 1 {
		t.Fatalf("%d plans, want 1 (unreachable op skipped)", len(plans))
	}
}

func TestSubtreeContainsMM(t *testing.T) {
	g := dag.NewGraph()
	x := g.Input("X", 20, 20, 0.05)
	u := g.Input("U", 20, 4, 1)
	v := g.Input("V", 4, 20, 1)
	mm := g.MatMul(u, v)
	lgm := g.Unary("abs", mm)
	pat := g.Binary(matrix.Neq, x, g.Scalar(0))
	mul := g.Binary(matrix.Mul, pat, lgm)
	g.SetOutput("O", mul)
	p := planOf(t, mul, mm, lgm, pat)
	if !subtreeContainsMM(p, lgm) {
		t.Fatal("lgm subtree contains mm")
	}
	if subtreeContainsMM(p, pat) {
		t.Fatal("pattern subtree does not contain mm")
	}
	// The (X != 0)-style member driver is accepted as an outer mask.
	m := FindOuterMask(p)
	if m == nil || m.Driver != pat {
		t.Fatalf("mask = %+v, want driver (X != 0)", m)
	}
}
