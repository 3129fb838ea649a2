package remote_test

import (
	"testing"
	"time"

	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/rt/remote"
	"fuseme/internal/workloads"
)

// stealConfig over-decomposes stages (Oversubscribe waves on one lane per
// worker) so every worker's queue is several tasks deep at stage start: a
// straggler's queue then stays non-empty for (depth-1) task delays, wide
// enough that an idle worker reaches the steal path even when the machine
// is loaded. The sim reference in each test must use the same config —
// the plan (and therefore the accumulation order) depends on PlanSlots.
func stealConfig() cluster.Config {
	cfg := testConfig()
	cfg.TasksPerNode = 1
	cfg.Oversubscribe = 6
	return cfg
}

// startStealCluster launches n workers and a coordinator under cfg — a
// stealConfig variant: one task lane per worker, so queue depth survives long
// enough for idle workers to have something to steal or prefetch for (with
// many lanes a worker's whole queue goes in-flight at stage start).
func startStealCluster(t *testing.T, cfg cluster.Config, n int) (*remote.Coordinator, []*remote.Worker) {
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
	co, err := remote.NewCoordinator(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	return co, workers
}

// TestRemotePrefetchSecondExecution: on two real workers, with no injected
// delay, the first execution of each stage shape has no recorded fetch
// history and prefetches nothing; from the second execution on, the workers
// pull their next task's inputs ahead, so blocks, bytes and hidden wire time
// are all positive. The same run with PrefetchBytes < 0 executes the same
// tasks with no prefetch and no steals.
func TestRemotePrefetchSecondExecution(t *testing.T) {
	x, u, v := gnmfInputs(testConfig().BlockSize)
	run := func(cfg cluster.Config) *workloads.GNMFResult {
		t.Helper()
		co, _ := startStealCluster(t, cfg, 2)
		res, err := workloads.RunGNMF(core.FuseME{}, co, x, u.Clone(), v.Clone(), 2)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	cfg := stealConfig()
	cfg.DisableStealing = true // a stolen task's prefetched inputs sit on the wrong worker
	on := run(cfg)
	if first := on.PerIter[0]; first.PrefetchBlocks != 0 || first.PrefetchBytes != 0 {
		t.Errorf("first execution prefetched %d blocks / %d bytes with no history, want 0/0",
			first.PrefetchBlocks, first.PrefetchBytes)
	}
	if second := on.PerIter[1]; second.PrefetchBlocks == 0 || second.PrefetchBytes == 0 || second.OverlapRatio() <= 0 {
		t.Errorf("second execution prefetched %d blocks / %d bytes, overlap %v; want all positive",
			second.PrefetchBlocks, second.PrefetchBytes, second.OverlapRatio())
	}

	cfg.PrefetchBytes = -1
	off := run(cfg)
	if off.Total.PrefetchBlocks != 0 || off.Total.OverlapRatio() != 0 || off.Total.StealTasks != 0 {
		t.Errorf("run without prefetch reported %d prefetched blocks, overlap %v, %d steals; want none",
			off.Total.PrefetchBlocks, off.Total.OverlapRatio(), off.Total.StealTasks)
	}
	if off.Total.Tasks != on.Total.Tasks {
		t.Errorf("task counts differ: %d with prefetch vs %d without", on.Total.Tasks, off.Total.Tasks)
	}
	compareMatrices(t, "U prefetch on vs off", on.U, off.U)
	compareMatrices(t, "V prefetch on vs off", on.V, off.V)
}

// TestRemoteStragglerSteal: with one worker slowed per task, the fast worker
// must drain its own queue and pull queued tasks off the straggler — and the
// result must still match the simulated reference, because stolen tasks fold
// through the same ordered reducer as home-run ones.
func TestRemoteStragglerSteal(t *testing.T) {
	const iters = 2
	bs := testConfig().BlockSize

	simCfg := stealConfig()
	x, u, v := gnmfInputs(bs)
	ref, err := workloads.RunGNMF(core.FuseME{}, cluster.MustNew(simCfg), x, u.Clone(), v.Clone(), iters)
	if err != nil {
		t.Fatal(err)
	}

	co, workers := startStealCluster(t, stealConfig(), 2)
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
	if ref.Total.StealTasks != 0 {
		t.Errorf("simulated backend reported %d steals; it has no queues to steal from", ref.Total.StealTasks)
	}
}

// TestRemoteStealOptOut: a worker started with stealing disabled
// (fuseme-worker -steal=false → SetSteal(false)) never volunteers, so the
// coordinator must not route it stolen tasks even when it idles next to a
// straggler. The opt-out is learned from the task stream, so a warm-up run
// lets the coordinator observe it before the straggler run is measured.
func TestRemoteStealOptOut(t *testing.T) {
	bs := testConfig().BlockSize
	co, workers := startStealCluster(t, stealConfig(), 2)
	workers[1].SetSteal(false)

	x, u, v := gnmfInputs(bs)
	warm, err := workloads.RunGNMF(core.FuseME{}, co, x, u.Clone(), v.Clone(), 1)
	if err != nil {
		t.Fatal(err)
	}

	workers[0].SetTaskDelay(20 * time.Millisecond)
	res, err := workloads.RunGNMF(core.FuseME{}, co, x, u, v, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := workloads.RunGNMF(core.FuseME{}, cluster.MustNew(stealConfig()), x, u.Clone(), v.Clone(), 2)
	if err != nil {
		t.Fatal(err)
	}
	compareMatrices(t, "U with steal opt-out", res.U, ref.U)
	compareMatrices(t, "V with steal opt-out", res.V, ref.V)
	if stolen := co.Stats().StealTasks - warm.Total.StealTasks; stolen != 0 {
		t.Errorf("opted-out worker was routed %d stolen tasks", stolen)
	}
}
