package remote_test

import (
	"testing"
	"time"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/lang"
	"fuseme/internal/obs"
	"fuseme/internal/rt/remote"
	"fuseme/internal/workloads"
)

// stealConfig is the cluster the steal test compiles for: six lanes per
// worker, where the coordinator it runs on has one (startStealCluster), so
// every stage holds up to six tasks per lane and every worker's queue is
// several tasks deep at stage start: a straggler's queue then stays non-empty
// for (depth-1) task delays, wide enough that an idle worker reaches the
// steal path even when the machine is loaded. The sim reference runs at this
// config, so it compiles the same plan and folds in the same order.
func stealConfig() cluster.Config {
	cfg := testConfig()
	cfg.TasksPerNode = 6
	return cfg
}

// wideRuntime is a coordinator that reports a wider cluster than it
// dispatches to: plans compile for cfg, and lowered stages keep the task
// counts cfg gives them, while the coordinator runs them on its own lanes.
type wideRuntime struct {
	*remote.Coordinator
	cfg cluster.Config
}

func (w wideRuntime) Config() cluster.Config { return w.cfg }

// startStealCluster launches n workers and a coordinator with one task lane
// per worker — with many lanes a worker's whole queue goes in-flight at stage
// start — and returns it reporting stealConfig's width.
func startStealCluster(t *testing.T, n int) (wideRuntime, []*remote.Worker) {
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
	cfg := stealConfig()
	cfg.TasksPerNode = 1
	co, err := remote.NewCoordinator(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	wide := co.Config()
	wide.TasksPerNode = stealConfig().TasksPerNode
	return wideRuntime{Coordinator: co, cfg: wide}, workers
}

// TestRemoteStragglerSteal: with one worker slowed per task, the fast worker
// must drain its own queue and pull queued tasks off the straggler over TCP —
// and the result must still match the simulated reference, because stolen
// tasks fold through the same ordered reducer as home-run ones. The driver's
// steal rule itself is pinned without sockets in internal/sched; this is its
// one run over real workers.
func TestRemoteStragglerSteal(t *testing.T) {
	const iters = 2
	bs := testConfig().BlockSize

	simCfg := stealConfig()
	x, u, v := gnmfInputs(bs)
	ref, err := workloads.RunGNMF(core.FuseME{}, cluster.MustNew(simCfg), x, u.Clone(), v.Clone(), iters)
	if err != nil {
		t.Fatal(err)
	}

	co, workers := startStealCluster(t, 2)
	workers[1].SetTaskDelay(20 * time.Millisecond)
	res, err := workloads.RunGNMF(core.FuseME{}, co, x, u, v, iters)
	if err != nil {
		t.Fatal(err)
	}
	compareMatrices(t, "U with straggler", res.U, ref.U)
	compareMatrices(t, "V with straggler", res.V, ref.V)
	if res.Total.StealTasks == 0 {
		t.Error("fast worker stole nothing from a 20ms/task straggler")
	}
	// The sim runs the same stages on the lanes they were compiled for, six
	// per node: every stage fits them, so nothing is stolen there.
	if ref.Total.StealTasks != 0 {
		t.Errorf("sim at %d lanes per node stole %d tasks; every stage fits its lanes", simCfg.TasksPerNode, ref.Total.StealTasks)
	}
}

// TestOneTaskStageRunsAtHome: a one-task stage on two workers runs at its
// home, worker 0, every time: the stage driver runs it on node 0's lane
// (internal/sched pins that without sockets), and the coordinator sends a
// lane's first attempt to the lane's own worker.
func TestOneTaskStageRunsAtHome(t *testing.T) {
	const runs = 100
	co, workers := startCluster(t, 2)
	regs := make([]*obs.Registry, len(workers))
	for i, w := range workers {
		regs[i] = obs.NewRegistry()
		w.SetObs(&obs.Obs{Metrics: regs[i]})
	}
	a := block.RandomDense(8, 8, testConfig().BlockSize, 0, 1, 1)
	g, err := lang.Parse("B = A + 1", map[string]lang.InputDecl{"A": {Rows: 8, Cols: 8, Sparsity: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < runs; run++ {
		if _, _, err := core.Run(core.FuseME{}, g, co, map[string]*block.Matrix{"A": a}); err != nil {
			t.Fatal(err)
		}
	}
	st := co.Stats()
	if st.Stages != runs || st.Tasks != runs {
		t.Fatalf("%d stages, %d tasks over %d runs; want one one-task stage per run", st.Stages, st.Tasks, runs)
	}
	home, other := regs[0].Counter(obs.MWorkerTasksTotal).Value(), regs[1].Counter(obs.MWorkerTasksTotal).Value()
	if home != runs || other != 0 || st.StealTasks != 0 {
		t.Errorf("worker 0 ran %d tasks, worker 1 ran %d, %d stolen; want %d, 0, 0", home, other, st.StealTasks, runs)
	}
}
