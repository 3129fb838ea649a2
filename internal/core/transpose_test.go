package core_test

import (
	"testing"

	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/dag"
	"fuseme/internal/matrix"
	"fuseme/internal/ref"
	"fuseme/internal/workloads"
)

// TestBaselinePlansIgnoreFuseMECompile: FuseME plans a copy of GNMF in which
// each consumer reads its own t(V) and t(U), and leaves the caller's graph
// as it was. Every baseline compiled on that graph after FuseME therefore
// plans exactly what it plans on a fresh one.
func TestBaselinePlansIgnoreFuseMECompile(t *testing.T) {
	for _, cc := range []struct {
		name  string
		cfg   cluster.Config
		graph func() *dag.Graph
	}{
		{"local", localConfig(), func() *dag.Graph { return workloads.GNMF(2000, 1500, 32, 0.01) }},
		{"paper", cluster.Default(), func() *dag.Graph { return workloads.GNMF(480_189, 17_770, 200, 0.0118) }},
	} {
		cfg := cc.cfg
		g := cc.graph()
		nodes := len(g.Nodes())
		pp, err := core.FuseME{}.Compile(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if pp.Graph == g {
			t.Fatalf("%s: FuseME planned GNMF's shared transposes as written", cc.name)
		}
		for _, op := range pp.Ops {
			if op.Kind != "CFO" {
				t.Errorf("%s: FuseME runs %s %v; want CFOs only", cc.name, op.Kind, op.Plan)
			}
		}
		if len(g.Nodes()) != nodes {
			t.Fatalf("%s: FuseME's compile added nodes to the caller's graph", cc.name)
		}
		for _, e := range []core.Engine{core.SystemDSSim{}, core.DistMESim{}, core.MatFastSim{}, core.TensorFlowSim{}} {
			after, err := e.Compile(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := e.Compile(cc.graph(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if after.Graph != g {
				t.Errorf("%s/%s planned another graph than the one it was given", cc.name, e.Name())
			}
			if a, f := after.Describe()+after.DescribeCosts(cfg), fresh.Describe()+fresh.DescribeCosts(cfg); a != f {
				t.Errorf("%s/%s: plan after FuseME's compile\n%s\nwant, as on a fresh graph,\n%s", cc.name, e.Name(), a, f)
			}
		}
	}
}

// TestSplitTransposesMatchReference runs FuseME's plan for GNMF, whose CFOs
// now read t(V) and t(U) as members, and for a t(V) that is a named output
// as well as read twice, against the single-node reference to 1e-9.
func TestSplitTransposesMatchReference(t *testing.T) {
	named := dag.NewGraph()
	v := named.Input("V", 29, 5, 1)
	tv := named.Transpose(v)
	named.SetOutput("T", tv)
	named.SetOutput("A", named.MatMul(tv, named.Input("X", 29, 23, 0.3)))
	named.SetOutput("B", named.MatMul(tv, v))
	gnmf := smallWorkloads(t)[1]
	for _, tc := range []testCase{
		gnmf,
		{name: "named-output", graph: named, flats: map[string]matrix.Mat{
			"X": gnmf.flats["X"], "V": gnmf.flats["V"]}},
	} {
		want, err := ref.Evaluate(tc.graph, tc.flats)
		if err != nil {
			t.Fatal(err)
		}
		for _, bs := range []int{5, 8} {
			got, _, err := core.Run(core.FuseME{}, tc.graph, testCluster(bs), blockInputs(tc.flats, bs))
			if err != nil {
				t.Fatalf("%s/bs=%d: %v", tc.name, bs, err)
			}
			for name, w := range want {
				if !matrix.EqualApprox(got[name].ToMat(), w, 1e-9) {
					t.Errorf("%s/bs=%d: output %q differs from the reference", tc.name, bs, name)
				}
			}
		}
	}
}
