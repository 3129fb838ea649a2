package chaos

import (
	"testing"
	"time"

	"fuseme/internal/block"
	"fuseme/internal/core"
	"fuseme/internal/obs"
	"fuseme/internal/rt/remote"
	"fuseme/internal/workloads"
)

// TestStragglerDetection injects a straggler — one of two TCP workers stalls
// every task body by a fixed pad — and requires the skew detector to flag it:
// the injected worker's fuseme_worker_slowdown series must sit clearly above
// the healthy fleet score of ~1.0, and the per-stage imbalance gauge must
// show the stretched critical path.
func TestStragglerDetection(t *testing.T) {
	cfg := testCluster()
	cfg.Nodes = 2
	// Home placement keeps task→worker attribution deterministic. No stage
	// has more tasks than a worker has lanes, so nothing is stuck behind the
	// straggler and the healthy worker steals nothing (checked below):
	// stealing is the mitigation, not the signal under test.

	const slow = 1
	addrs := make([]string, cfg.Nodes)
	workers := make([]*remote.Worker, cfg.Nodes)
	for i := range addrs {
		w, err := remote.NewWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		workers[i] = w
		addrs[i] = w.Addr()
	}
	// The pad must dominate the task body even when the race detector slows
	// healthy tasks to tens of milliseconds: with two workers the slowdown
	// score converges to 2r/(1+r) for a duration ratio r, so crossing the
	// 1.5 flag threshold needs r >= 3 with margin.
	workers[slow].SetTaskDelay(100 * time.Millisecond)

	co, err := remote.NewCoordinatorConfig(cfg, addrs, fastTransport())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })

	reg := obs.NewRegistry()
	o := &obs.Obs{Metrics: reg}
	co.SetObs(reg)

	const rows, cols, k = 96, 64, 8
	inputs := map[string]*block.Matrix{
		"X": block.RandomSparse(rows, cols, 16, 0.05, 1, 5, 1),
		"U": block.RandomDense(rows, k, 16, 0.5, 1.5, 2),
		"V": block.RandomDense(cols, k, 16, 0.5, 1.5, 3),
	}
	g := workloads.NMFKernel(rows, cols, k, inputs["X"].Density())
	// A few iterations so the per-worker EWMA converges on the injected
	// slowdown (alpha 0.3 crosses the flag threshold within ~3 stages).
	for i := 0; i < 3; i++ {
		if _, _, err := core.RunObs(core.FuseME{}, g, co, inputs, o); err != nil {
			t.Fatal(err)
		}
	}

	if n := co.Stats().StealTasks; n != 0 {
		t.Fatalf("%d tasks stolen, want 0", n)
	}
	slowScore := reg.Gauge(obs.WorkerSlowdownGauge(slow)).Value()
	healthyScore := reg.Gauge(obs.WorkerSlowdownGauge(0)).Value()
	if slowScore < 1.5 {
		t.Errorf("injected straggler's slowdown score = %g, want >= 1.5", slowScore)
	}
	if healthyScore > slowScore/1.5 {
		t.Errorf("healthy worker score %g not clearly below straggler's %g", healthyScore, slowScore)
	}
	if skew := reg.Gauge(obs.MStageSkew).Value(); skew <= 1 {
		t.Errorf("stage skew gauge = %g, want > 1 with a padded worker", skew)
	}
}
