package remote_test

import (
	"testing"
	"time"

	"fuseme/internal/chaos/chaostest"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/lang"
	"fuseme/internal/obs"
	"fuseme/internal/rt/remote"
)

// TestStaleIdleStreamRedials: a task stream parked between two stages dies
// with the network (every proxied connection is severed, the worker stays
// up). The next assignment finds the dead stream, re-dials once and runs —
// a dead idle connection is not a task failure, so the retry counter does
// not move and the worker never turns suspect. The heartbeat is set far
// apart so it cannot notice the blip first.
func TestStaleIdleStreamRedials(t *testing.T) {
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

	rcfg := remote.Config{HeartbeatInterval: time.Hour, HeartbeatTimeout: 2 * time.Hour, DialTimeout: 2 * time.Second}
	co, err := remote.NewCoordinatorConfig(testConfig(), []string{w1.Addr(), proxy.Addr()}, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	reg := obs.NewRegistry()
	co.SetObs(reg)

	inputs, decls := testInputs(t, testConfig().BlockSize)
	g, err := lang.Parse(`U2 = U * (t(V) %*% X) / (t(V) %*% V %*% U)`, decls)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := core.Run(core.FuseME{}, g, cluster.MustNew(co.Config()), inputs)
	if err != nil {
		t.Fatal(err)
	}
	run := func(when string) {
		t.Helper()
		got, _, err := core.Run(core.FuseME{}, g, co, inputs)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		for name, m := range want {
			compareMatrices(t, name+" "+when, got[name], m)
		}
	}
	run("before the blip") // parks streams to both workers
	epoch, conns := co.ClusterEpoch(), proxy.Accepted()
	proxy.DropAll()
	run("after the blip")

	if n := reg.Counter(obs.MRetriesTotal).Value(); n != 0 {
		t.Errorf("%s = %d after a dead idle stream, want 0", obs.MRetriesTotal, n)
	}
	if got := co.ClusterEpoch(); got != epoch {
		t.Errorf("cluster epoch moved %d -> %d: the worker was suspected", epoch, got)
	}
	if proxy.Accepted() == conns {
		t.Error("no new connection through the proxy: the second run cannot have reached worker 2")
	}
}
