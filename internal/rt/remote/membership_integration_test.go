package remote_test

import (
	"testing"
	"time"

	"fuseme/internal/chaos/chaostest"
	"fuseme/internal/core"
	"fuseme/internal/lang"
	"fuseme/internal/membership"
	"fuseme/internal/rt/remote"
)

// fastConfig is transport tuning with a tight heartbeat so liveness
// transitions resolve in test time.
func fastConfig() remote.Config {
	return remote.Config{
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  250 * time.Millisecond,
		DialTimeout:       500 * time.Millisecond,
	}
}

// startElasticCluster launches n workers and a fast-heartbeat coordinator
// with a join listener.
func startElasticCluster(t *testing.T, n int, rcfg remote.Config) (*remote.Coordinator, []*remote.Worker, string) {
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
	co, err := remote.NewCoordinatorConfig(testConfig(), addrs, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	joinAddr, err := co.ServeJoin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return co, workers, joinAddr
}

// waitForState blocks until member id reaches state, waking on membership
// change events rather than sleep-polling: the watch channel is snapshotted
// before each table inspection, so a transition between check and wait still
// wakes the waiter.
func waitForState(t *testing.T, co *remote.Coordinator, id int, want membership.State) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		changed := co.MembershipWatch()
		for _, m := range co.Members() {
			if m.ID == id && m.State == want {
				return
			}
		}
		select {
		case <-changed:
		case <-deadline:
			t.Fatalf("member %d never reached %v; table: %+v", id, want, co.Members())
		}
	}
}

// TestElasticJoinAndLeave grows a two-worker cluster to three through the
// join listener, whose reply carries the grown membership, runs a query on
// the grown cluster, then drains one worker away.
func TestElasticJoinAndLeave(t *testing.T) {
	co, workers, joinAddr := startElasticCluster(t, 2, fastConfig())
	e0 := co.ClusterEpoch()

	w3, err := remote.NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w3.Close() })
	view, err := remote.Register(joinAddr, w3.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(view) != 3 {
		t.Fatalf("post-join view has %d members, want 3: %+v", len(view), view)
	}
	waitForState(t, co, 2, membership.Active)
	if got := co.ClusterEpoch(); got <= e0 {
		t.Errorf("epoch %d did not advance past %d on join", got, e0)
	}

	// A second Register for the same address is an idempotent no-op.
	eBefore := co.ClusterEpoch()
	if _, err := remote.Register(joinAddr, w3.Addr(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := co.ClusterEpoch(); got != eBefore {
		t.Errorf("re-registering a live member bumped the epoch %d -> %d", eBefore, got)
	}

	// The grown cluster computes correctly (tasks round-robin over 3 workers).
	inputs, decls := testInputs(t, testConfig().BlockSize)
	g, err := lang.Parse(`l = sum((X - V %*% U)^2)`, decls)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.Run(core.FuseME{}, g, co, inputs); err != nil {
		t.Fatal(err)
	}

	// Drain one original worker: Leave, then the worker finishes in-flight
	// tasks (none here) and its membership row turns left, not dead.
	if err := remote.Leave(joinAddr, workers[1].Addr(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	waitForState(t, co, 1, membership.Left)
	if !workers[1].Drain(time.Second) {
		t.Error("idle worker did not drain")
	}
	if alive := co.ActiveCount(); alive != 2 {
		t.Errorf("ActiveCount = %d, want 2 after drain", alive)
	}
	if _, _, err := core.Run(core.FuseME{}, g, co, inputs); err != nil {
		t.Fatalf("query after drain: %v", err)
	}

	// Leaving an address that is not a live member fails loudly.
	if err := remote.Leave(joinAddr, workers[1].Addr(), 2*time.Second); err == nil {
		t.Error("second Leave for the same worker succeeded")
	}
}

// TestSuspectProbeRecovery breaks a worker's connections without killing the
// worker: the heartbeat must route it through suspect, and the probe's fresh
// dial must return it to active rather than evicting it.
func TestSuspectProbeRecovery(t *testing.T) {
	w1, err := remote.NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w1.Close() })
	w2, err := remote.NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w2.Close() })
	proxy := chaostest.NewProxy(t, w2.Addr())

	co, err := remote.NewCoordinatorConfig(testConfig(), []string{w1.Addr(), proxy.Addr()}, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })

	e0 := co.ClusterEpoch()
	proxy.DropAll()
	// The next heartbeat fails, suspects the worker, probes through the
	// still-accepting proxy, and recovers it: two transitions, net state
	// active.
	deadline := time.After(10 * time.Second)
	for {
		changed := co.MembershipWatch()
		if co.ClusterEpoch() >= e0+2 {
			break
		}
		select {
		case <-changed:
		case <-deadline:
			t.Fatalf("epoch stuck at %d, want >= %d (suspect + recover)", co.ClusterEpoch(), e0+2)
		}
	}
	waitForState(t, co, 1, membership.Active)
	if alive := co.ActiveCount(); alive != 2 {
		t.Errorf("ActiveCount = %d, want 2 after recovery", alive)
	}

	// The recovered cluster still computes.
	inputs, decls := testInputs(t, testConfig().BlockSize)
	g, err := lang.Parse(`O = X * 2 + W`, decls)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.Run(core.FuseME{}, g, co, inputs); err != nil {
		t.Fatal(err)
	}
}

// TestDeathRoutesThroughSuspect kills a worker process outright: the
// heartbeat suspects it, the probe fails, and the member lands in dead —
// with the epoch recording both transitions.
func TestDeathRoutesThroughSuspect(t *testing.T) {
	co, workers, _ := startElasticCluster(t, 2, fastConfig())
	e0 := co.ClusterEpoch()
	workers[0].Close()
	waitForState(t, co, 0, membership.Dead)
	if got := co.ClusterEpoch(); got < e0+2 {
		t.Errorf("epoch advanced %d -> %d; want >= +2 (suspect then dead)", e0, got)
	}
	if alive := co.ActiveCount(); alive != 1 {
		t.Errorf("ActiveCount = %d, want 1", alive)
	}
}
