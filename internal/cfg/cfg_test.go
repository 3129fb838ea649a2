package cfg

import (
	"testing"

	"fuseme/internal/cluster"
	"fuseme/internal/dag"
	"fuseme/internal/fusion"
	"fuseme/internal/lang"
)

// Local graph builders (the workloads package cannot be imported here: it
// depends on the engine layer, which depends on this package).

func mustParse(t testing.TB, src string, inputs map[string]lang.InputDecl) *dag.Graph {
	t.Helper()
	g, err := lang.Parse(src, inputs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func gnmfGraph(t testing.TB, users, items, k int, density float64) *dag.Graph {
	return mustParse(t, `
U2 = U * (t(V) %*% X) / (t(V) %*% V %*% U)
V2 = V * (X %*% t(U)) / (V %*% (U %*% t(U)))
`, map[string]lang.InputDecl{
		"X": {Rows: users, Cols: items, Sparsity: density},
		"U": {Rows: k, Cols: items, Sparsity: 1},
		"V": {Rows: users, Cols: k, Sparsity: 1},
	})
}

func nmfGraph(t testing.TB, rows, cols, k int, density float64) *dag.Graph {
	return mustParse(t, "O = X * log(U %*% t(V) + 1e-3)", map[string]lang.InputDecl{
		"X": {Rows: rows, Cols: cols, Sparsity: density},
		"U": {Rows: rows, Cols: k, Sparsity: 1},
		"V": {Rows: cols, Cols: k, Sparsity: 1},
	})
}

// paperModel is the paper's cluster, whose 1000-wide blocks the tests plan at.
func paperModel() cluster.Config { return cluster.Default() }

// gnmfStructure finds, per output, the generated plan sizes for the GNMF
// graph (Figure 10).
func TestExplorationPhaseGNMF(t *testing.T) {
	// YahooMusic-scale GNMF with k=200.
	g := gnmfGraph(t, 1_823_179, 136_736, 200, 0.0029)
	rule := fusion.RuleFor(g, 10<<30)
	candidates := ExplorationPhase(g, rule)
	// Two candidate mm-plans, one per factor update (the transposes are
	// materialisation points and stay outside, exactly as in Figure 10(a)).
	if len(candidates) != 2 {
		for _, p := range candidates {
			t.Logf("candidate: %v", p)
		}
		t.Fatalf("%d candidates, want 2", len(candidates))
	}
	for _, p := range candidates {
		// Each candidate holds the three multiplications and two
		// element-wise operators of one update: {v1..v5} of Figure 10(a).
		if got := len(p.MatMuls()); got != 3 {
			t.Errorf("candidate %v has %d matmuls, want 3", p, got)
		}
		if p.Size() != 5 {
			t.Errorf("candidate %v has %d members, want 5", p, p.Size())
		}
		if p.Root.NumConsumers() != 0 {
			t.Errorf("candidate root %s is not a query root", p.Root.Label())
		}
	}
}

func TestExploitationPhaseSplitsDistantMM(t *testing.T) {
	// At YahooMusic scale the doubly nested t(V) x V chain replicates enough
	// that splitting it out wins (Figure 10(b): F1 -> F'1 + v2).
	g := gnmfGraph(t, 1_823_179, 136_736, 200, 0.0029)
	rule := fusion.RuleFor(g, 10<<30)
	candidates := ExplorationPhase(g, rule)
	final, params := ExploitationPhase(candidates, paperModel())
	if len(final) <= len(candidates) {
		t.Fatalf("exploitation did not split: %d plans from %d candidates", len(final), len(candidates))
	}
	// Every mm-plan received feasible parameters.
	for _, p := range final {
		if p.MainMM == nil {
			continue
		}
		res, ok := params[p]
		if !ok {
			t.Errorf("plan %v has no parameters", p)
			continue
		}
		if !res.Feasible {
			t.Errorf("plan %v infeasible after exploitation", p)
		}
	}
	// The split-off plans are rooted at multiplications (the k x k chains).
	var splitRoots int
	for _, p := range final {
		if p.Root.Op == dag.OpMatMul {
			splitRoots++
		}
	}
	if splitRoots == 0 {
		t.Fatal("no split plan rooted at a multiplication")
	}
}

func TestGenerateCoversWholeGraph(t *testing.T) {
	graphs := map[string]*dag.Graph{
		"gnmf": gnmfGraph(t, 100_000, 50_000, 200, 0.001),
		"nmf":  nmfGraph(t, 100_000, 100_000, 2000, 0.001),
		"als": mustParse(t, "loss = sum((X != 0) * (X - U %*% V)^2)", map[string]lang.InputDecl{
			"X": {Rows: 100_000, Cols: 100_000, Sparsity: 0.001},
			"U": {Rows: 100_000, Cols: 100, Sparsity: 1},
			"V": {Rows: 100, Cols: 100_000, Sparsity: 1},
		}),
		"pca": mustParse(t, "O = t(X %*% S) %*% X", map[string]lang.InputDecl{
			"X": {Rows: 100_000, Cols: 1000, Sparsity: 1},
			"S": {Rows: 1000, Cols: 10, Sparsity: 1},
		}),
		"outer": mustParse(t, "O = (U %*% V) * X", map[string]lang.InputDecl{
			"X": {Rows: 100_000, Cols: 100_000, Sparsity: 0.001},
			"U": {Rows: 100_000, Cols: 100, Sparsity: 1},
			"V": {Rows: 100, Cols: 100_000, Sparsity: 1},
		}),
		"multiagg": mustParse(t, "s1 = sum(U * X); s2 = sum(X * V)", map[string]lang.InputDecl{
			"X": {Rows: 10_000, Cols: 10_000, Sparsity: 0.01},
			"U": {Rows: 10_000, Cols: 10_000, Sparsity: 1},
			"V": {Rows: 10_000, Cols: 10_000, Sparsity: 1},
		}),
	}
	for name, g := range graphs {
		res, err := Generate(g, paperModel())
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := res.Set.Validate(g); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestGenerateNMFSinglePlan(t *testing.T) {
	// The NMF kernel fuses into exactly one CFO ("the entire query is
	// executed as a single fused operator", Section 6.2).
	g := nmfGraph(t, 100_000, 100_000, 2000, 0.001)
	res, err := Generate(g, paperModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set.Plans) != 1 {
		for _, p := range res.Set.Plans {
			t.Logf("plan: %v", p)
		}
		t.Fatalf("%d plans, want 1", len(res.Set.Plans))
	}
	p := res.Set.Plans[0]
	if p.Classify() != fusion.Outer {
		t.Fatalf("classified %v, want Outer", p.Classify())
	}
	if !res.Params[p].Feasible {
		t.Fatal("single plan infeasible")
	}
}

func TestCFGFusesLargeMatMulUnlikeGEN(t *testing.T) {
	// The headline difference (Figure 1(c)): for (X x t(V) * U) / (t(V) x V
	// x U)-style queries CFG keeps the large multiplication inside the
	// fusion plan.
	g := gnmfGraph(t, 1_823_179, 136_736, 1000, 0.0029)
	res, err := Generate(g, paperModel())
	if err != nil {
		t.Fatal(err)
	}
	foundLargeFused := false
	for _, p := range res.Set.Plans {
		if p.MainMM != nil && p.Size() > 1 {
			vox := int64(p.MainMM.Rows) * int64(p.MainMM.Cols) * int64(p.MainMM.Inputs[0].Cols)
			if vox > 1e12 {
				foundLargeFused = true
			}
		}
	}
	if !foundLargeFused {
		t.Fatal("CFG fused no large matmul")
	}
}

func TestSplitPreservesSemantics(t *testing.T) {
	// split() must partition members and leave both plans valid.
	g := gnmfGraph(t, 10_000, 8_000, 200, 0.01)
	rule := fusion.RuleFor(g, 10<<30)
	for _, f := range ExplorationPhase(g, rule) {
		for _, vi := range secondaryMatMuls(f) {
			fm, fi, err := split(f, vi)
			if err != nil {
				t.Fatalf("split: %v", err)
			}
			if fm.Size()+fi.Size() != f.Size() {
				t.Fatalf("split lost members: %d + %d != %d", fm.Size(), fi.Size(), f.Size())
			}
			if fi.Root != vi {
				t.Fatal("split subtree not rooted at vi")
			}
			if err := fm.Validate(); err != nil {
				t.Fatal(err)
			}
			if err := fi.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestSecondaryMatMulsSortedByDistance(t *testing.T) {
	g := gnmfGraph(t, 1_823_179, 136_736, 200, 0.0029)
	rule := fusion.RuleFor(g, 10<<30)
	for _, f := range ExplorationPhase(g, rule) {
		sp := secondaryMatMuls(f)
		if len(sp) != 2 {
			t.Fatalf("%d secondary matmuls, want 2", len(sp))
		}
		d := hopDistances(f)
		if d[sp[0].ID] < d[sp[1].ID] {
			t.Fatal("secondary matmuls not sorted by descending distance")
		}
		// Figure 11's observation: the doubly nested k x k multiplication is
		// the most distant.
		if d[sp[0].ID] != 4 || d[sp[1].ID] != 3 {
			t.Fatalf("distances %d,%d; want 4,3", d[sp[0].ID], d[sp[1].ID])
		}
	}
}

// TestSplitInputTransposesGNMF: each of GNMF's four transpose reads gets a
// t(V) or t(U) of its own, which CFG then fuses into the consuming CFO, so
// no plan is left without a multiplication (Figure 10(b)'s v0 is gone).
func TestSplitInputTransposesGNMF(t *testing.T) {
	g := gnmfGraph(t, 2000, 1500, 32, 0.01)
	sg := SplitInputTransposes(g)
	if sg == g {
		t.Fatal("GNMF's shared t(V) and t(U) came back shared")
	}
	transposes := 0
	for _, n := range sg.Nodes() {
		if n.Op == dag.OpTranspose {
			transposes++
			if n.NumConsumers() != 1 || n.Inputs[0].Op != dag.OpInput {
				t.Fatalf("t(%s)#%d has %d consumers", n.Inputs[0].Label(), n.ID, n.NumConsumers())
			}
		}
	}
	if transposes != 4 {
		t.Fatalf("%d transposes, want one per read: 4", transposes)
	}
	res, err := Generate(sg, paperModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set.Plans) != 4 {
		t.Fatalf("%d plans, want 4 CFOs", len(res.Set.Plans))
	}
	for _, p := range res.Set.Plans {
		if p.MainMM == nil {
			t.Fatalf("plan %v has no multiplication: a transpose still runs on its own", p)
		}
	}
}

// TestSplitInputTransposesLeavesOtherGraphs: a single-use input transpose,
// one that is also a named output, and a shared transpose of a computed
// intermediate leave the graph as it is — the same pointer, and for the
// single-use case (every NMF-kernel, AutoEncoder and serving compile) no
// allocation.
func TestSplitInputTransposesLeavesOtherGraphs(t *testing.T) {
	decls := map[string]lang.InputDecl{
		"X": {Rows: 60, Cols: 40, Sparsity: 0.1},
		"W": {Rows: 60, Cols: 40, Sparsity: 1},
		"U": {Rows: 60, Cols: 8, Sparsity: 1},
		"V": {Rows: 40, Cols: 8, Sparsity: 1},
	}
	// A script's consumed variable is no output, so the named-output case
	// is built directly: T = t(V) is an output and read by two products.
	named := dag.NewGraph()
	v := named.Input("V", 40, 8, 1)
	tv := named.Transpose(v)
	named.SetOutput("T", tv)
	named.SetOutput("A", named.MatMul(tv, named.Input("X2", 40, 60, 0.1)))
	named.SetOutput("B", named.MatMul(tv, v))
	for _, c := range []struct {
		name string
		g    *dag.Graph
	}{
		{"single-use", mustParse(t, "O = X * log(U %*% t(V) + 1e-3)", decls)},
		{"named output", named},
		{"computed intermediate", mustParse(t, "A = t(U %*% t(V)) %*% X\nB = t(U %*% t(V)) %*% W", decls)},
	} {
		if sg := SplitInputTransposes(c.g); sg != c.g {
			t.Errorf("%s: the graph was rewritten", c.name)
		}
	}
	shared := false
	for _, n := range mustParse(t, "A = t(U %*% t(V)) %*% X\nB = t(U %*% t(V)) %*% W", decls).Nodes() {
		shared = shared || n.Op == dag.OpTranspose && n.NumConsumers() > 1 && n.Inputs[0].Op == dag.OpMatMul
	}
	if !shared {
		t.Fatal("the computed-intermediate script has no shared t(U %*% t(V))")
	}
	g := nmfGraph(t, 4000, 3000, 32, 0.01)
	if allocs := testing.AllocsPerRun(100, func() { SplitInputTransposes(g) }); allocs != 0 {
		t.Fatalf("%v allocations on a graph without a shared input transpose", allocs)
	}
}
