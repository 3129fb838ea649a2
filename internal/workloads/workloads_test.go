package workloads

import (
	"math"
	"testing"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/dag"
	"fuseme/internal/matrix"
)

func testCluster() *cluster.Cluster {
	return cluster.MustNew(cluster.Config{
		Nodes: 2, TasksPerNode: 3, TaskMemBytes: 1 << 40,
		NetBandwidth: 1e9, CompBandwidth: 1e12, BlockSize: 6,
	})
}

func TestQueryShapes(t *testing.T) {
	cases := []struct {
		name    string
		g       *dag.Graph
		outputs map[string][2]int
	}{
		{"nmf", NMFKernel(100, 80, 10, 0.01), map[string][2]int{"O": {100, 80}}},
		{"gnmf", GNMF(100, 80, 10, 0.01), map[string][2]int{"U2": {10, 80}, "V2": {100, 10}}},
		{"als", ALSLoss(100, 80, 10, 0.01), map[string][2]int{"loss": {1, 1}}},
		{"pca", PCA(100, 20, 5), map[string][2]int{"O": {5, 20}}},
		{"outer", Outer(100, 80, 10, 0.01), map[string][2]int{"O": {100, 80}}},
		{"multiagg", MultiAgg(50, 50, 0.1), map[string][2]int{"s1": {1, 1}, "s2": {1, 1}}},
	}
	for _, c := range cases {
		if err := c.g.Validate(); err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		for name, dims := range c.outputs {
			n, ok := c.g.Outputs()[name]
			if !ok {
				t.Errorf("%s: missing output %q", c.name, name)
				continue
			}
			if n.Rows != dims[0] || n.Cols != dims[1] {
				t.Errorf("%s: %q is %dx%d, want %dx%d", c.name, name, n.Rows, n.Cols, dims[0], dims[1])
			}
		}
	}
}

func TestAutoEncoderStepShapes(t *testing.T) {
	c := AutoEncoderConfig{Features: 20, Batch: 8, H1: 6, H2: 3}
	g := AutoEncoderStep(c)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	want := map[string][2]int{
		"loss": {1, 1},
		"gW1":  {6, 20}, "gb1": {6, 1},
		"gW2": {3, 6}, "gb2": {3, 1},
		"gW3": {6, 3}, "gb3": {6, 1},
		"gW4": {20, 6}, "gb4": {20, 1},
	}
	outs := g.Outputs()
	if len(outs) != len(want) {
		t.Fatalf("%d outputs, want %d: %v", len(outs), len(want), g.OutputNames())
	}
	for name, dims := range want {
		n := outs[name]
		if n == nil || n.Rows != dims[0] || n.Cols != dims[1] {
			t.Errorf("output %q wrong shape", name)
		}
	}
}

// TestGNMFConvergence: multiplicative updates must monotonically reduce the
// squared reconstruction error on a small dense problem.
func TestGNMFConvergence(t *testing.T) {
	cl := testCluster()
	const users, items, k = 30, 24, 4
	x := block.RandomDense(users, items, 6, 0.5, 1.5, 1)
	u := block.RandomDense(k, items, 6, 0.2, 0.8, 2)
	v := block.RandomDense(users, k, 6, 0.2, 0.8, 3)

	frob := func(u, v *block.Matrix) float64 {
		pred := matrix.MatMul(v.ToMat(), u.ToMat())
		diff := matrix.Binary(matrix.Sub, x.ToMat(), pred)
		return matrix.Aggregate(matrix.SumAll, matrix.ApplyNamed("sq", diff)).At(0, 0)
	}
	before := frob(u, v)
	res, err := RunGNMF(core.FuseME{}, cl, x, u, v, 5)
	if err != nil {
		t.Fatal(err)
	}
	after := frob(res.U, res.V)
	if after >= before {
		t.Fatalf("GNMF did not reduce loss: %v -> %v", before, after)
	}
	if len(res.PerIter) != 5 {
		t.Fatalf("%d per-iteration stats, want 5", len(res.PerIter))
	}
	for i, s := range res.PerIter {
		if s.TotalCommBytes() <= 0 || s.WallSeconds <= 0 {
			t.Errorf("iteration %d has empty stats: %+v", i, s)
		}
	}
}

// TestGNMFEnginesAgree: the factors after two iterations must match across
// engines bit-close.
func TestGNMFEnginesAgree(t *testing.T) {
	const users, items, k = 25, 20, 3
	x := block.RandomDense(users, items, 6, 0.5, 1.5, 4)
	u0 := block.RandomDense(k, items, 6, 0.2, 0.8, 5)
	v0 := block.RandomDense(users, k, 6, 0.2, 0.8, 6)

	var wantU, wantV matrix.Mat
	for i, e := range []core.Engine{core.FuseME{}, core.SystemDSSim{}, core.DistMESim{}, core.MatFastSim{}} {
		res, err := RunGNMF(e, testCluster(), x, u0.Clone(), v0.Clone(), 2)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if i == 0 {
			wantU, wantV = res.U.ToMat(), res.V.ToMat()
			continue
		}
		if !matrix.EqualApprox(res.U.ToMat(), wantU, 1e-8) || !matrix.EqualApprox(res.V.ToMat(), wantV, 1e-8) {
			t.Errorf("%s: factors differ from FuseME", e.Name())
		}
	}
}

// TestAutoEncoderTrains: SGD over a few epochs must reduce reconstruction
// loss.
func TestAutoEncoderTrains(t *testing.T) {
	cl := testCluster()
	c := AutoEncoderConfig{Features: 12, Batch: 8, H1: 5, H2: 2}
	x := block.RandomDense(32, c.Features, 6, 0, 1, 7)
	state := InitAutoEncoder(c, 6, 8)
	first, err := RunAutoEncoderEpoch(core.FuseME{}, cl, x, c, 0.2, state)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 6; i++ {
		last, err = RunAutoEncoderEpoch(core.FuseME{}, cl, x, c, 0.2, state)
		if err != nil {
			t.Fatal(err)
		}
	}
	if math.IsNaN(last) || last >= first {
		t.Fatalf("AutoEncoder loss did not improve: %v -> %v", first, last)
	}
}

func TestAutoEncoderEnginesAgreeOnLoss(t *testing.T) {
	c := AutoEncoderConfig{Features: 10, Batch: 8, H1: 4, H2: 2}
	x := block.RandomDense(16, c.Features, 6, 0, 1, 9)
	var want float64
	for i, e := range []core.Engine{core.FuseME{}, core.SystemDSSim{}, core.TensorFlowSim{}} {
		state := InitAutoEncoder(c, 6, 10)
		loss, err := RunAutoEncoderEpoch(e, testCluster(), x, c, 0.1, state)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if i == 0 {
			want = loss
			continue
		}
		if math.Abs(loss-want) > 1e-8*math.Max(1, math.Abs(want)) {
			t.Errorf("%s: loss %v != %v", e.Name(), loss, want)
		}
	}
}

func TestInitAutoEncoderDeterministic(t *testing.T) {
	c := AutoEncoderConfig{Features: 10, Batch: 4, H1: 4, H2: 2}
	a := InitAutoEncoder(c, 6, 42)
	b := InitAutoEncoder(c, 6, 42)
	if !block.EqualApprox(a.W1, b.W1, 0) || !block.EqualApprox(a.B4, b.B4, 0) {
		t.Fatal("same seed produced different weights")
	}
}

func TestKLDivergenceEnginesAgree(t *testing.T) {
	g := KLDivergence(30, 24, 4, 0.1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	x := block.RandomSparse(30, 24, 6, 0.1, 1, 5, 1)
	u := block.RandomDense(30, 4, 6, 0.5, 1.5, 2)
	v := block.RandomDense(4, 24, 6, 0.5, 1.5, 3)
	inputs := map[string]*block.Matrix{"X": x, "U": u, "V": v}
	var want float64
	for i, e := range []core.Engine{core.FuseME{}, core.SystemDSSim{}, core.DistMESim{}} {
		out, _, err := core.Run(e, g, testCluster(), inputs)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		got := out["loss"].At(0, 0)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("%s: loss = %v (sparse zeros must not contribute)", e.Name(), got)
		}
		if i == 0 {
			want = got
			continue
		}
		if math.Abs(got-want) > 1e-8*math.Max(1, math.Abs(want)) {
			t.Fatalf("%s: loss %v != %v", e.Name(), got, want)
		}
	}
	// Hand-computed reference over the non-zeros.
	var ref float64
	pf := matrix.MatMul(u.ToMat(), v.ToMat())
	xf := x.ToMat()
	for i := 0; i < 30; i++ {
		for j := 0; j < 24; j++ {
			xv := xf.At(i, j)
			if xv != 0 {
				ref += xv * math.Log(xv/pf.At(i, j))
			}
			ref += pf.At(i, j)
			ref -= xv
		}
	}
	if math.Abs(ref-want) > 1e-8*math.Abs(ref) {
		t.Fatalf("loss %v, hand-computed %v", want, ref)
	}
}
