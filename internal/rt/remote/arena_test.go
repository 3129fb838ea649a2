package remote_test

import (
	"math"
	"testing"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/lang"
	"fuseme/internal/rt/remote"
)

// oneStreamRuntime starts one worker and a coordinator with one dispatch lane
// over it, so every task runs on the same task stream, one after the other.
// Plans compile for six lanes, so a stage has several tasks, each fetching
// its own blocks into the storage the task before it fetched into.
func oneStreamRuntime(t *testing.T) wideRuntime {
	t.Helper()
	w, err := remote.NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	cfg := testConfig()
	cfg.TasksPerNode = 1
	co, err := remote.NewCoordinator(cfg, []string{w.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	wide := co.Config()
	wide.TasksPerNode = 6
	return wideRuntime{Coordinator: co, cfg: wide}
}

// runBoth runs script on the simulated cluster of rtm's shape and on rtm,
// and requires the two results to be equal bit for bit.
func runBoth(t *testing.T, rtm wideRuntime, script string, inputs map[string]*block.Matrix) {
	t.Helper()
	decls := map[string]lang.InputDecl{}
	for name, m := range inputs {
		decls[name] = lang.InputDecl{Rows: m.Rows, Cols: m.Cols, Sparsity: m.Density()}
	}
	g, err := lang.Parse(script, decls)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := core.Run(core.FuseME{}, g, cluster.MustNew(rtm.Config()), inputs)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := core.Run(core.FuseME{}, g, rtm, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		g := got[name]
		for i := 0; i < w.Rows; i++ {
			for j := 0; j < w.Cols; j++ {
				if a, b := g.At(i, j), w.At(i, j); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%s: %s(%d,%d) = %g over TCP, %g simulated", script, name, i, j, a, b)
				}
			}
		}
	}
}

// TestFetchedStorageIsReusedAcrossTasks: the tasks of every stage run in
// sequence on one stream, each fetching different blocks into the storage
// the task before it fetched into, and every query — with fresh data each
// time — equals the simulated run bit for bit. The masked query's results
// share their pattern with the fetched X block they were sampled from, so
// its result frames go out from the very storage the next task reuses.
func TestFetchedStorageIsReusedAcrossTasks(t *testing.T) {
	rtm := oneStreamRuntime(t)
	for seed, q := range queries {
		inputs := map[string]*block.Matrix{
			"X": block.RandomSparse(tRows, tCols, 16, 0.2, 1, 5, int64(10*seed+1)),
			"W": block.RandomDense(tRows, tCols, 16, 0, 1, int64(10*seed+2)),
			"U": block.RandomDense(tK, tCols, 16, 0.1, 0.9, int64(10*seed+3)),
			"V": block.RandomDense(tRows, tK, 16, 0.1, 0.9, int64(10*seed+4)),
		}
		runBoth(t, rtm, q.script, inputs)
	}
}

// TestCachedFetchesOutliveTheirTask: GNMF's U and V updates read X in
// stages one after the other on one stream. A worker keeps no fetched block
// past the task that fetched it, so the V update's stage fetches the X blocks
// again, into the storage the U update's tasks decoded into, and both updates
// equal the simulated run bit for bit.
func TestCachedFetchesOutliveTheirTask(t *testing.T) {
	rtm := oneStreamRuntime(t)
	inputs, _ := testInputs(t, testConfig().BlockSize)
	const gnmf = `
U2 = U * (t(V) %*% X) / (t(V) %*% V %*% U)
V2 = V * (X %*% t(U)) / (V %*% (U %*% t(U)))`
	runBoth(t, rtm, gnmf, inputs)
}
