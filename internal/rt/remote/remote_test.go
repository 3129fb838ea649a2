package remote_test

import (
	"math"
	"testing"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/exec"
	"fuseme/internal/lang"
	"fuseme/internal/rt/remote"
)

// testConfig is a small cluster shape: real block arithmetic at laptop scale,
// no simulated-time limit, retries enabled.
func testConfig() cluster.Config {
	return cluster.Config{
		Nodes:          2, // overridden by the coordinator with the worker count
		TasksPerNode:   4,
		TaskMemBytes:   1 << 30,
		NetBandwidth:   1e9,
		CompBandwidth:  50e9,
		BlockSize:      16,
		MaxTaskRetries: 2,
	}
}

// startCluster launches n in-process workers and a coordinator over them.
func startCluster(t *testing.T, n int) (*remote.Coordinator, []*remote.Worker) {
	t.Helper()
	workers := make([]*remote.Worker, n)
	addrs := make([]string, n)
	for i := range workers {
		w, err := remote.NewWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		workers[i] = w
		addrs[i] = w.Addr()
	}
	co, err := remote.NewCoordinator(testConfig(), addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	return co, workers
}

// queries covers every executor stage shape: cuboid with a sparse mask,
// a dense multiplication chain, an aggregation root, and a matmul-free
// element-wise plan (grid path with colocated inputs).
var queries = []struct {
	name   string
	script string
}{
	{"masked", `O = X * log(V %*% U + 1e-3)`},
	{"gnmf-u", `U2 = U * (t(V) %*% X) / (t(V) %*% V %*% U)`},
	{"loss", `l = sum((X - V %*% U)^2)`},
	{"elementwise", `O = X * 2 + W`},
}

const (
	tRows, tCols, tK = 96, 64, 8
)

func testInputs(t *testing.T, bs int) (map[string]*block.Matrix, map[string]lang.InputDecl) {
	t.Helper()
	x := block.RandomSparse(tRows, tCols, bs, 0.2, 1, 5, 1)
	w := block.RandomDense(tRows, tCols, bs, 0, 1, 2)
	u := block.RandomDense(tK, tCols, bs, 0.1, 0.9, 3)
	v := block.RandomDense(tRows, tK, bs, 0.1, 0.9, 4)
	inputs := map[string]*block.Matrix{"X": x, "W": w, "U": u, "V": v}
	decls := map[string]lang.InputDecl{}
	for name, m := range inputs {
		decls[name] = lang.InputDecl{Rows: m.Rows, Cols: m.Cols, Sparsity: m.Density()}
	}
	return inputs, decls
}

func compareMatrices(t *testing.T, name string, got, want *block.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: got %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			g, w := got.At(i, j), want.At(i, j)
			if math.Abs(g-w) > 1e-9*math.Max(1, math.Abs(w)) {
				t.Fatalf("%s: (%d,%d) = %g, want %g", name, i, j, g, w)
			}
		}
	}
}

// TestRemoteMatchesSim runs every query shape on both backends and requires
// bit-close results plus wire traffic within 2x of the simulated
// communication for the same plan.
func TestRemoteMatchesSim(t *testing.T) {
	co, _ := startCluster(t, 2)
	for _, q := range queries {
		t.Run(q.name, func(t *testing.T) {
			inputs, decls := testInputs(t, testConfig().BlockSize)
			g, err := lang.Parse(q.script, decls)
			if err != nil {
				t.Fatal(err)
			}
			cl := cluster.MustNew(co.Config())
			simOut, simStats, err := core.Run(core.FuseME{}, g, cl, inputs)
			if err != nil {
				t.Fatal(err)
			}
			co.ResetStats()
			remOut, remStats, err := core.Run(core.FuseME{}, g, co, inputs)
			if err != nil {
				t.Fatal(err)
			}
			for name, want := range simOut {
				compareMatrices(t, name, remOut[name], want)
			}
			simComm := simStats.TotalCommBytes()
			remComm := remStats.TotalCommBytes()
			if simComm > 0 {
				if remComm == 0 {
					t.Fatalf("remote wire bytes are zero, simulated %d", simComm)
				}
				if remComm > 2*simComm || simComm > 2*remComm {
					t.Errorf("wire bytes %d not within 2x of simulated %d", remComm, simComm)
				}
			}
		})
	}
}

// TestRemoteMultiStage forces R = 2 so the partial and fuse phases (with
// their partial-block shuffle through the coordinator) run remotely.
func TestRemoteMultiStage(t *testing.T) {
	co, _ := startCluster(t, 2)
	inputs, decls := testInputs(t, testConfig().BlockSize)
	g, err := lang.Parse(`U2 = U * (t(V) %*% X) / (t(V) %*% V %*% U)`, decls)
	if err != nil {
		t.Fatal(err)
	}
	forceR := func(pp *core.PhysPlan, cfg cluster.Config) {
		for _, op := range pp.Ops {
			if op.Strategy == exec.Cuboid && op.Plan.MainMM != nil {
				op.P, op.Q, op.R = 2, 1, 2
			}
		}
		if err := pp.Lower(cfg); err != nil {
			t.Fatal(err)
		}
	}
	cl := cluster.MustNew(co.Config())
	pp, err := (core.FuseME{}).Compile(g, cl.Config())
	if err != nil {
		t.Fatal(err)
	}
	forceR(pp, cl.Config())
	simOut, err := core.Execute(pp, cl, inputs)
	if err != nil {
		t.Fatal(err)
	}
	pp2, err := (core.FuseME{}).Compile(g, co.Config())
	if err != nil {
		t.Fatal(err)
	}
	forceR(pp2, co.Config())
	remOut, err := core.Execute(pp2, co, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range simOut {
		compareMatrices(t, name, remOut[name], want)
	}
	if agg := co.Stats().AggregationBytes; agg == 0 {
		t.Error("multi-stage run moved no aggregation bytes over the wire")
	}
}

// TestWorkerDeathRetries kills one of three workers mid-stage and requires
// the stage to finish on the survivors with a correct result.
func TestWorkerDeathRetries(t *testing.T) {
	co, workers := startCluster(t, 3)
	workers[1].KillAfterTasks(1) // dies as its second task arrives

	inputs, decls := testInputs(t, testConfig().BlockSize)
	g, err := lang.Parse(`U2 = U * (t(V) %*% X) / (t(V) %*% V %*% U)`, decls)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.MustNew(co.Config())
	simOut, _, err := core.Run(core.FuseME{}, g, cl, inputs)
	if err != nil {
		t.Fatal(err)
	}
	remOut, _, err := core.Run(core.FuseME{}, g, co, inputs)
	if err != nil {
		t.Fatalf("stage did not survive worker death: %v", err)
	}
	for name, want := range simOut {
		compareMatrices(t, name, remOut[name], want)
	}
	if alive := co.ActiveCount(); alive != 2 {
		t.Errorf("ActiveCount = %d, want 2 after one death", alive)
	}
}

// TestAllWorkersDead verifies the coordinator fails cleanly (rather than
// hanging) when no workers survive.
func TestAllWorkersDead(t *testing.T) {
	co, workers := startCluster(t, 1)
	workers[0].KillAfterTasks(0)

	inputs, decls := testInputs(t, testConfig().BlockSize)
	g, err := lang.Parse(`l = sum((X - V %*% U)^2)`, decls)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.Run(core.FuseME{}, g, co, inputs); err == nil {
		t.Fatal("expected an error with every worker dead")
	}
}
