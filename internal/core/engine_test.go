package core_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/dag"
	"fuseme/internal/matrix"
	"fuseme/internal/ref"
	"fuseme/internal/workloads"
)

func testCluster(bs int) *cluster.Cluster {
	return cluster.MustNew(cluster.Config{
		Nodes:         2,
		TasksPerNode:  3,
		TaskMemBytes:  1 << 40,
		NetBandwidth:  1e9,
		CompBandwidth: 1e12,
		BlockSize:     bs,
	})
}

// testCase is one workload instance with concrete inputs.
type testCase struct {
	name  string
	graph *dag.Graph
	flats map[string]matrix.Mat
}

func smallWorkloads(t *testing.T) []testCase {
	t.Helper()
	return []testCase{
		{
			name:  "nmf-kernel",
			graph: workloads.NMFKernel(37, 31, 9, 0.06),
			flats: map[string]matrix.Mat{
				"X": matrix.RandomSparse(37, 31, 0.06, 0.5, 1.5, 1),
				"U": matrix.RandomDense(37, 9, 0.5, 1.5, 2),
				"V": matrix.RandomDense(31, 9, 0.5, 1.5, 3),
			},
		},
		{
			name:  "gnmf",
			graph: workloads.GNMF(29, 23, 5, 0.3),
			flats: map[string]matrix.Mat{
				"X": matrix.ToDense(matrix.RandomSparse(29, 23, 0.3, 0.5, 1.5, 4)),
				"U": matrix.RandomDense(5, 23, 0.5, 1.5, 5),
				"V": matrix.RandomDense(29, 5, 0.5, 1.5, 6),
			},
		},
		{
			name:  "als-loss",
			graph: workloads.ALSLoss(26, 22, 6, 0.08),
			flats: map[string]matrix.Mat{
				"X": matrix.RandomSparse(26, 22, 0.08, 0.5, 1.5, 7),
				"U": matrix.RandomDense(26, 6, -0.5, 0.5, 8),
				"V": matrix.RandomDense(6, 22, -0.5, 0.5, 9),
			},
		},
		{
			name:  "pca",
			graph: workloads.PCA(24, 18, 4),
			flats: map[string]matrix.Mat{
				"X": matrix.RandomDense(24, 18, -1, 1, 10),
				"S": matrix.RandomDense(18, 4, -1, 1, 11),
			},
		},
		{
			name:  "outer",
			graph: workloads.Outer(25, 27, 7, 0.05),
			flats: map[string]matrix.Mat{
				"X": matrix.RandomSparse(25, 27, 0.05, 0.5, 1.5, 12),
				"U": matrix.RandomDense(25, 7, -1, 1, 13),
				"V": matrix.RandomDense(7, 27, -1, 1, 14),
			},
		},
		{
			name:  "multiagg",
			graph: workloads.MultiAgg(21, 19, 0.2),
			flats: map[string]matrix.Mat{
				"X": matrix.RandomSparse(21, 19, 0.2, -1, 1, 15),
				"U": matrix.RandomDense(21, 19, -1, 1, 16),
				"V": matrix.RandomDense(21, 19, -1, 1, 17),
			},
		},
		{
			name: "autoencoder",
			graph: workloads.AutoEncoderStep(workloads.AutoEncoderConfig{
				Features: 13, Batch: 8, H1: 6, H2: 3}),
			flats: map[string]matrix.Mat{
				"XT": matrix.RandomDense(13, 8, 0, 1, 18),
				"W1": matrix.RandomDense(6, 13, -0.3, 0.3, 19),
				"b1": matrix.RandomDense(6, 1, -0.1, 0.1, 20),
				"W2": matrix.RandomDense(3, 6, -0.3, 0.3, 21),
				"b2": matrix.RandomDense(3, 1, -0.1, 0.1, 22),
				"W3": matrix.RandomDense(6, 3, -0.3, 0.3, 23),
				"b3": matrix.RandomDense(6, 1, -0.1, 0.1, 24),
				"W4": matrix.RandomDense(13, 6, -0.3, 0.3, 25),
				"b4": matrix.RandomDense(13, 1, -0.1, 0.1, 26),
			},
		},
		{
			name:  "kl-divergence",
			graph: workloads.KLDivergence(28, 23, 5, 0.1),
			flats: map[string]matrix.Mat{
				"X": matrix.RandomSparse(28, 23, 0.1, 1, 5, 27),
				"U": matrix.RandomDense(28, 5, 0.5, 1.5, 28),
				"V": matrix.RandomDense(5, 23, 0.5, 1.5, 29),
			},
		},
	}
}

func blockInputs(flats map[string]matrix.Mat, bs int) map[string]*block.Matrix {
	out := make(map[string]*block.Matrix, len(flats))
	for name, m := range flats {
		out[name] = block.FromMat(m, bs)
	}
	return out
}

// TestAllEnginesMatchReference is the central equivalence suite: every
// engine — FuseME also with sparsity balancing, whose ranges each execution
// derives from its driver, and with masking ablated — must produce
// numerically identical results to the single-node reference on every
// workload.
func TestAllEnginesMatchReference(t *testing.T) {
	engines := []core.Engine{core.FuseME{}, core.FuseME{Balanced: true}, core.FuseME{NoMask: true},
		core.SystemDSSim{}, core.DistMESim{}, core.MatFastSim{}, core.TensorFlowSim{}}
	for _, tc := range smallWorkloads(t) {
		want, err := ref.Evaluate(tc.graph, tc.flats)
		if err != nil {
			t.Fatalf("%s: ref: %v", tc.name, err)
		}
		for _, bs := range []int{5, 8} {
			inputs := blockInputs(tc.flats, bs)
			for _, e := range engines {
				cl := testCluster(bs)
				got, _, err := core.Run(e, tc.graph, cl, inputs)
				if err != nil {
					t.Errorf("%s/%s/bs=%d: %v", tc.name, e.Name(), bs, err)
					continue
				}
				for name, w := range want {
					g, ok := got[name]
					if !ok {
						t.Errorf("%s/%s: missing output %q", tc.name, e.Name(), name)
						continue
					}
					if !matrix.EqualApprox(g.ToMat(), w, 1e-8) {
						t.Errorf("%s/%s/bs=%d: output %q differs from reference", tc.name, e.Name(), bs, name)
					}
				}
			}
		}
	}
}

// TestFuseMEFewerStagesThanDistME: fusion must reduce the number of
// distributed stages (intermediate materialisations) on GNMF.
func TestFuseMEFewerStagesThanDistME(t *testing.T) {
	tc := smallWorkloads(t)[1] // gnmf
	inputs := blockInputs(tc.flats, 5)

	clF := testCluster(5)
	if _, _, err := core.Run(core.FuseME{}, tc.graph, clF, inputs); err != nil {
		t.Fatal(err)
	}
	clD := testCluster(5)
	if _, _, err := core.Run(core.DistMESim{}, tc.graph, clD, inputs); err != nil {
		t.Fatal(err)
	}
	if clF.Stats().Stages >= clD.Stats().Stages {
		t.Fatalf("FuseME stages %d >= DistME stages %d", clF.Stats().Stages, clD.Stats().Stages)
	}
}

func TestPhysPlanDescribe(t *testing.T) {
	tc := smallWorkloads(t)[0]
	cl := testCluster(5)
	pp, err := (core.FuseME{}).Compile(tc.graph, cl.Config())
	if err != nil {
		t.Fatal(err)
	}
	desc := pp.Describe()
	for _, want := range []string{"CFO", "P=", "type=Outer"} {
		if !strings.Contains(desc, want) {
			t.Errorf("Describe missing %q:\n%s", want, desc)
		}
	}
}

func TestAdmissionControlOOM(t *testing.T) {
	// A tiny task budget makes the BFO-style engines fail with O.O.M.,
	// while FuseME's CFO partitions its way under the budget.
	g := workloads.NMFKernel(60, 60, 20, 0.05)
	flats := map[string]matrix.Mat{
		"X": matrix.RandomSparse(60, 60, 0.05, 0.5, 1.5, 1),
		"U": matrix.RandomDense(60, 20, 0.5, 1.5, 2),
		"V": matrix.RandomDense(60, 20, 0.5, 1.5, 3),
	}
	cfg := cluster.Config{
		Nodes: 2, TasksPerNode: 3, TaskMemBytes: 12_000,
		NetBandwidth: 1e9, CompBandwidth: 1e12, BlockSize: 5,
	}
	inputs := blockInputs(flats, 5)

	clM := cluster.MustNew(cfg)
	_, _, err := core.Run(core.MatFastSim{}, g, clM, inputs)
	if !errors.Is(err, cluster.ErrOutOfMemory) {
		t.Fatalf("MatFast under tiny budget: %v, want O.O.M.", err)
	}

	clF := cluster.MustNew(cfg)
	if _, _, err := core.Run(core.FuseME{}, g, clF, inputs); err != nil {
		t.Fatalf("FuseME should fit via partitioning: %v", err)
	}
}

func TestExecuteInputValidation(t *testing.T) {
	tc := smallWorkloads(t)[0]
	cl := testCluster(5)
	pp, err := (core.FuseME{}).Compile(tc.graph, cl.Config())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Execute(pp, cl, map[string]*block.Matrix{}); err == nil {
		t.Fatal("missing inputs accepted")
	}
	bad := blockInputs(tc.flats, 5)
	bad["X"] = block.New(3, 3, 5)
	if _, err := core.Execute(pp, cl, bad); err == nil {
		t.Fatal("wrong-shape input accepted")
	}
}

func TestSimulateMatchesAdmission(t *testing.T) {
	// Simulation at paper scale: FuseME succeeds; the broadcast engines
	// blow the 10 GB budget and report O.O.M. without computing anything.
	g := workloads.NMFKernel(750_000, 750_000, 2_000, 0.001)
	cl := cluster.MustNew(cluster.Default())
	ppF, err := (core.FuseME{}).Compile(g, cl.Config())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := core.Simulate(ppF, cl.Config())
	if err != nil {
		t.Fatalf("FuseME simulation: %v", err)
	}
	if stats.SimSeconds <= 0 || stats.ConsolidationBytes <= 0 {
		t.Fatalf("degenerate stats: %+v", stats)
	}

	ppB, err := (core.SystemDSSim{}).Compile(g, cl.Config())
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.Simulate(ppB, cl.Config())
	if !errors.Is(err, cluster.ErrOutOfMemory) {
		t.Fatalf("SystemDS at 750K scale: %v, want O.O.M.", err)
	}
}

func TestSimulateTimeout(t *testing.T) {
	g := workloads.NMFKernel(500_000, 500_000, 2_000, 0.001)
	cfg := cluster.Default()
	cfg.SimTimeLimit = 0.001
	cl := cluster.MustNew(cfg)
	pp, err := (core.FuseME{}).Compile(g, cl.Config())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Simulate(pp, cl.Config()); !errors.Is(err, cluster.ErrTimeout) {
		t.Fatalf("got %v, want T.O.", err)
	}
}

func TestSimulatedCFOBeatsBaselinesAtScale(t *testing.T) {
	// The headline result at n=100K (Figure 12(a)/(e)): CFO's simulated
	// time and communication are well below BFO's.
	g := workloads.NMFKernel(100_000, 100_000, 2_000, 0.001)
	cl := cluster.MustNew(cluster.Default())

	ppF, err := (core.FuseME{}).Compile(g, cl.Config())
	if err != nil {
		t.Fatal(err)
	}
	sF, err := core.Simulate(ppF, cl.Config())
	if err != nil {
		t.Fatal(err)
	}
	ppS, err := (core.SystemDSSim{}).Compile(g, cl.Config())
	if err != nil {
		t.Fatal(err)
	}
	sS, err := core.Simulate(ppS, cl.Config())
	if err != nil {
		t.Fatal(err)
	}
	if sF.TotalCommBytes() >= sS.TotalCommBytes() {
		t.Fatalf("CFO comm %d >= SystemDS comm %d", sF.TotalCommBytes(), sS.TotalCommBytes())
	}
	if sF.SimSeconds >= sS.SimSeconds {
		t.Fatalf("CFO time %v >= SystemDS time %v", sF.SimSeconds, sS.SimSeconds)
	}
}

// TestMultiAggFusion: the two sums of Figure 2(d) must execute as ONE fused
// operator on FuseME and SystemDS, scanning the shared X once.
func TestMultiAggFusion(t *testing.T) {
	g := workloads.MultiAgg(40, 40, 0.2)
	flats := map[string]matrix.Mat{
		"X": matrix.RandomSparse(40, 40, 0.2, -1, 1, 1),
		"U": matrix.RandomDense(40, 40, -1, 1, 2),
		"V": matrix.RandomDense(40, 40, -1, 1, 3),
	}
	inputs := blockInputs(flats, 8)
	want, err := ref.Evaluate(g, flats)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []core.Engine{core.FuseME{}, core.SystemDSSim{}} {
		cl := testCluster(8)
		pp, err := e.Compile(g, cl.Config())
		if err != nil {
			t.Fatal(err)
		}
		if len(pp.Ops) != 1 || len(pp.Ops[0].Group) != 2 {
			t.Fatalf("%s: plan not multi-agg fused:\n%s", e.Name(), pp.Describe())
		}
		if !strings.Contains(pp.Describe(), "MultiAgg") {
			t.Fatalf("%s: Describe lacks MultiAgg", e.Name())
		}
		got, err := core.Execute(pp, cl, inputs)
		if err != nil {
			t.Fatal(err)
		}
		for name, w := range want {
			if !matrix.EqualApprox(got[name].ToMat(), w, 1e-9) {
				t.Fatalf("%s: output %q differs", e.Name(), name)
			}
		}
		// One stage, and the shared X moved at most once per task: total
		// consolidation stays below the two-scan cost.
		if cl.Stats().Stages != 1 {
			t.Fatalf("%s: %d stages, want 1", e.Name(), cl.Stats().Stages)
		}
	}
	// DistME runs the aggregations separately: more stages.
	clD := testCluster(8)
	ppD, err := (core.DistMESim{}).Compile(g, clD.Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(ppD.Ops) < 2 {
		t.Fatal("DistME should not multi-agg fuse")
	}
}

// TestMultiAggNotGroupedWhenUnrelated: aggregations with disjoint inputs
// stay separate.
func TestMultiAggNotGroupedWhenUnrelated(t *testing.T) {
	g := dag.NewGraph()
	a := g.Input("A", 30, 30, 1)
	b := g.Input("B", 30, 30, 1)
	g.SetOutput("sa", g.Agg(matrix.SumAll, g.Unary("sq", a)))
	g.SetOutput("sb", g.Agg(matrix.SumAll, g.Unary("sq", b)))
	cl := testCluster(8)
	pp, err := (core.FuseME{}).Compile(g, cl.Config())
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range pp.Ops {
		if len(op.Group) > 0 {
			t.Fatal("disjoint aggregations were grouped")
		}
	}
}

// TestMultiAggGroupsStayExecutable: more sums over one plane than one
// multi-aggregation stage has outputs split into several operators instead of
// one that exec.MultiAggOp would refuse.
func TestMultiAggGroupsStayExecutable(t *testing.T) {
	g := dag.NewGraph()
	x := g.Input("X", 16, 16, 1)
	for i := 0; i < 70; i++ {
		g.SetOutput(fmt.Sprintf("s%d", i), g.Agg(matrix.SumAll, g.Binary(matrix.Mul, x, g.Scalar(float64(i+2)))))
	}
	cl := testCluster(8)
	flats := map[string]matrix.Mat{"X": matrix.RandomDense(16, 16, -1, 1, 1)}
	out, _, err := core.Run(core.FuseME{}, g, cl, blockInputs(flats, 8))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Evaluate(g, flats)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if !matrix.EqualApprox(out[name].ToMat(), w, 1e-9) {
			t.Errorf("output %q differs", name)
		}
	}
	if cl.Stats().Stages != 2 {
		t.Errorf("%d stages, want 2 (groups of 64 and 6)", cl.Stats().Stages)
	}
}
