package fuseme

import (
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"fuseme/internal/chaos/chaostest"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/membership"
	"fuseme/internal/obs"
	"fuseme/internal/rt/remote"
)

// startWorkers launches n in-process TCP workers and returns their addresses.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		w, err := remote.NewWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		addrs[i] = w.Addr()
	}
	return addrs
}

func bindTestInputs(s *Session) {
	s.RandomSparse("X", 80, 70, 0.05, 1, 5, 1)
	s.RandomDense("U", 80, 10, 0.5, 1.5, 2)
	s.RandomDense("V", 70, 10, 0.5, 1.5, 3)
}

// TestRebindServesTheNewInput: on the simulated cluster and over TCP
// workers, the query after X is rebound returns what a fresh session bound
// to the new X returns, not what it returned before.
func TestRebindServesTheNewInput(t *testing.T) {
	const script = "O = X * log(U %*% t(V) + 1e-3)"
	session := func(cfg ClusterConfig) *Session {
		t.Helper()
		sess, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		bindTestInputs(sess)
		return sess
	}
	query := func(sess *Session) []float64 {
		t.Helper()
		out, err := sess.Query(script)
		if err != nil {
			t.Fatal(err)
		}
		return out["O"].Dense()
	}
	newX := func(sess *Session) { sess.RandomSparse("X", 80, 70, 0.05, 1, 5, 99) }
	sim := LocalClusterConfig()
	sim.BlockSize = 16
	ref := session(sim)
	newX(ref)
	want := query(ref)
	for _, runtime := range []string{"sim", "tcp"} {
		t.Run(runtime, func(t *testing.T) {
			cfg := sim
			if cfg.Runtime = runtime; runtime == "tcp" {
				cfg.Workers = startWorkers(t, 2)
			}
			sess := session(cfg)
			before := query(sess)
			newX(sess)
			got := query(sess)
			changed := false
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-12*math.Max(1, math.Abs(want[i])) {
					t.Fatalf("O[%d] after the rebind = %g, a session bound to the new X gives %g", i, got[i], want[i])
				}
				changed = changed || before[i] != got[i]
			}
			if !changed {
				t.Error("rebinding X did not change the result")
			}
		})
	}
}

// TestSessionTCPRuntime runs the same query on a sim session and a TCP
// session backed by two local workers and requires matching results, real
// wire traffic, and a Close/reuse cycle that reconnects transparently.
func TestSessionTCPRuntime(t *testing.T) {
	const script = "O = X * log(U %*% t(V) + 1e-3)"

	sim := newTestSession(t)
	bindTestInputs(sim)
	simOut, err := sim.Query(script)
	if err != nil {
		t.Fatal(err)
	}
	simComm := sim.LastStats().TotalCommBytes()

	cfg := LocalClusterConfig()
	cfg.BlockSize = 16
	cfg.Runtime = "tcp"
	cfg.Workers = startWorkers(t, 2)
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	bindTestInputs(sess)

	out, err := sess.Query(script)
	if err != nil {
		t.Fatal(err)
	}
	want, got := simOut["O"].Dense(), out["O"].Dense()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*math.Max(1, math.Abs(want[i])) {
			t.Fatalf("tcp result differs from sim at %d: %g vs %g", i, got[i], want[i])
		}
	}
	remComm := sess.LastStats().TotalCommBytes()
	if remComm == 0 {
		t.Fatal("tcp run reported zero wire bytes")
	}
	if simComm > 0 && (remComm > 2*simComm || simComm > 2*remComm) {
		t.Errorf("wire bytes %d not within 2x of simulated %d", remComm, simComm)
	}

	// Close tears down the coordinator; the next query reconnects.
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query(script); err != nil {
		t.Fatalf("query after Close: %v", err)
	}
}

// TestSimSecondsIsThePlansClock: a query's LastStats().SimSeconds is the
// plan's Eq. 2 clock, core.Simulate of the plan it executed: bit for bit the
// same on the simulated cluster and over TCP workers, and the planned
// event's pred_seconds.
func TestSimSecondsIsThePlansClock(t *testing.T) {
	const script = "O = X * log(U %*% t(V) + 1e-3)"
	sim := LocalClusterConfig()
	tcp := sim
	tcp.Runtime, tcp.Workers = "tcp", startWorkers(t, sim.Nodes)
	var clocks []float64
	for _, cfg := range []ClusterConfig{sim, tcp} {
		j := NewJournal(0, nil)
		sess, err := NewSession(cfg, WithJournal(j))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		bindTestInputs(sess)
		if _, err := sess.Query(script); err != nil {
			t.Fatalf("%s: %v", cfg.Runtime, err)
		}
		got := sess.LastStats().SimSeconds
		cq, err := sess.compile(script)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Simulate(cq.pp, cq.rtm.Config())
		if err != nil {
			t.Fatal(err)
		}
		planned := j.Events("q1")[0]
		if got <= 0 || math.Float64bits(got) != math.Float64bits(want.SimSeconds) ||
			planned.Type != obs.EvPlanned || math.Float64bits(planned.PredSeconds) != math.Float64bits(got) {
			t.Errorf("%q runtime: SimSeconds %v, Simulate %v, planned %s %v; want one clock",
				cfg.Runtime, got, want.SimSeconds, planned.Type, planned.PredSeconds)
		}
		clocks = append(clocks, got)
	}
	if math.Float64bits(clocks[0]) != math.Float64bits(clocks[1]) {
		t.Errorf("SimSeconds: sim %v, tcp %v; want bit-identical", clocks[0], clocks[1])
	}
}

// TestSessionTCPWorkersFromEnv exercises the FUSEME_WORKERS fallback.
func TestSessionTCPWorkersFromEnv(t *testing.T) {
	addrs := startWorkers(t, 2)
	os.Setenv("FUSEME_WORKERS", addrs[0]+", "+addrs[1])
	defer os.Unsetenv("FUSEME_WORKERS")

	cfg := LocalClusterConfig()
	cfg.BlockSize = 16
	cfg.Runtime = "tcp"
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	bindTestInputs(sess)
	out, err := sess.Query("l = sum((X - U %*% t(V))^2)")
	if err != nil {
		t.Fatal(err)
	}
	if out["l"] == nil {
		t.Fatal("missing output l")
	}
}

// TestSessionTCPConfigErrors covers the failure modes of runtime selection:
// no workers configured, an unreachable worker, and an unknown runtime name.
func TestSessionTCPConfigErrors(t *testing.T) {
	cfg := LocalClusterConfig()
	cfg.Runtime = "tcp"
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess.RandomDense("A", 8, 8, 0, 1, 1)
	if _, err := sess.Query("B = A + 1"); err == nil {
		t.Fatal("tcp runtime with no workers accepted")
	}

	cfg.Workers = []string{"127.0.0.1:1"} // reserved port, nothing listening
	sess2, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess2.RandomDense("A", 8, 8, 0, 1, 1)
	if _, err := sess2.Query("B = A + 1"); err == nil {
		t.Fatal("unreachable worker accepted")
	}

	cfg3 := LocalClusterConfig()
	cfg3.Runtime = "bogus"
	sess3, err := NewSession(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	sess3.RandomDense("A", 8, 8, 0, 1, 1)
	if _, err := sess3.Query("B = A + 1"); err == nil {
		t.Fatal("unknown runtime accepted")
	}
}

// TestTCPSessionLeavesNoGoroutines: GNMF over two loopback workers, then
// Session.Close and Worker.Close/Wait — the persistent task streams, the
// heartbeats and the worker's stream handlers all end, so no goroutine with
// a frame of internal/rt/remote on its stack remains.
func TestTCPSessionLeavesNoGoroutines(t *testing.T) {
	workers := make([]*remote.Worker, 2)
	addrs := make([]string, len(workers))
	for i := range workers {
		w, err := remote.NewWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		workers[i], addrs[i] = w, w.Addr()
	}
	cfg := LocalClusterConfig()
	cfg.BlockSize = 16
	cfg.Runtime = "tcp"
	cfg.Workers = addrs
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess.RandomSparse("X", 80, 70, 0.05, 1, 5, 1)
	sess.RandomDense("U", 10, 70, 0.5, 1.5, 2)
	sess.RandomDense("V", 80, 10, 0.5, 1.5, 3)
	for iter := 0; iter < 2; iter++ {
		out, err := sess.Query(`
U2 = U * (t(V) %*% X) / (t(V) %*% V %*% U)
V2 = V * (X %*% t(U)) / (V %*% (U %*% t(U)))`)
		if err != nil {
			sess.Close()
			t.Fatal(err)
		}
		sess.Bind("U", out["U2"])
		sess.Bind("V", out["V2"])
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	// Closing the session hangs up every parked stream and the control
	// connections, so the workers' handlers return on their own.
	chaostest.WaitNoGoroutine(t, "remote.(*Worker).serveStream")
	chaostest.WaitNoGoroutine(t, "remote.(*Worker).controlLoop")
	for _, w := range workers {
		w.Close()
		w.Wait()
	}
	chaostest.WaitNoGoroutine(t, "fuseme/internal/rt/remote.")
}

// wideRuntime is a coordinator that reports a wider cluster than it
// dispatches to: plans compile for cfg, and lowered stages keep the task
// counts cfg gives them, while the coordinator runs them on its own lanes.
type wideRuntime struct {
	*remote.Coordinator
	cfg cluster.Config
}

func (w wideRuntime) Config() cluster.Config { return w.cfg }

// TestTCPStealAndDeathLeaveNoGoroutines is the same check after the two
// paths a plain run never takes: a straggler whose queued tasks the idle
// worker steals, then a query during which a worker dies mid-stage and its
// task finishes on the survivor. The session's plans compile for six lanes
// per worker and run on one, so every worker's queue is six tasks deep.
func TestTCPStealAndDeathLeaveNoGoroutines(t *testing.T) {
	workers := make([]*remote.Worker, 2)
	addrs := make([]string, len(workers))
	for i := range workers {
		w, err := remote.NewWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		workers[i], addrs[i] = w, w.Addr()
	}
	cfg := LocalClusterConfig()
	cfg.BlockSize = 16
	cfg.TasksPerNode = 1
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	co, err := remote.NewCoordinator(sess.cc, addrs)
	if err != nil {
		t.Fatal(err)
	}
	co.SetObs(sess.obs.Metrics)
	wide := co.Config()
	wide.TasksPerNode = 6
	sess.rtm = wideRuntime{Coordinator: co, cfg: wide}
	sess.RandomSparse("X", 80, 70, 0.05, 1, 5, 1)
	sess.RandomDense("U", 10, 70, 0.5, 1.5, 2)
	sess.RandomDense("V", 80, 10, 0.5, 1.5, 3)
	const script = "U2 = U * (t(V) %*% X) / (t(V) %*% V %*% U)"

	workers[1].SetTaskDelay(20 * time.Millisecond)
	if _, err := sess.Query(script); err != nil {
		t.Fatal(err)
	}
	if n := sess.LastStats().StealTasks; n == 0 {
		t.Fatal("the idle worker stole nothing from a 20ms/task straggler")
	}
	workers[1].SetTaskDelay(0)
	workers[1].KillAfterTasks(1) // dies as its second task arrives
	if _, err := sess.Query(script); err != nil {
		t.Fatalf("query did not finish on the survivor: %v", err)
	}
	if n := co.ActiveCount(); n != 1 {
		t.Fatalf("%d workers alive after the kill, want 1", n)
	}

	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	chaostest.WaitNoGoroutine(t, "remote.(*Worker).serveStream")
	chaostest.WaitNoGoroutine(t, "remote.(*Worker).controlLoop")
	for _, w := range workers {
		w.Close()
		w.Wait()
	}
	chaostest.WaitNoGoroutine(t, "fuseme/internal/rt/remote.")
}

// blip severs the connections to worker id through p and waits until the
// coordinator has routed the worker through suspect and back to active.
func blip(t *testing.T, co *remote.Coordinator, p *chaostest.Proxy, id int) {
	t.Helper()
	e0 := co.ClusterEpoch()
	p.DropAll()
	waitMembership(t, co, func() bool { return co.ClusterEpoch() >= e0+2 && co.Members()[id].State == membership.Active })
}

// waitMembership blocks until cond holds, woken by each membership change.
func waitMembership(t *testing.T, co *remote.Coordinator, cond func() bool) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		changed := co.MembershipWatch()
		if cond() {
			return
		}
		select {
		case <-changed:
		case <-deadline:
			t.Fatalf("membership never settled: epoch %d, table %+v", co.ClusterEpoch(), co.Members())
		}
	}
}

// tcpSessionVia returns a TCP session over the given worker addresses with a
// plan cache, its inputs bound, and its coordinator after a first query.
func tcpSessionVia(t *testing.T, addrs []string, script string) (*Session, *remote.Coordinator) {
	t.Helper()
	cfg := LocalClusterConfig()
	cfg.BlockSize = 16
	cfg.Runtime = "tcp"
	cfg.Workers = addrs
	sess, err := NewSession(cfg, WithPlanCache(NewPlanCache(0)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	bindTestInputs(sess)
	if _, err := sess.Query(script); err != nil {
		t.Fatal(err)
	}
	return sess, sess.rtm.(*remote.Coordinator)
}

// TestTCPPlanCacheHitsAfterBlip: a worker's suspect → active blip does not
// move the plan-cache key. The coordinator's Config — the only cluster input
// to Compile — is the seed cluster's shape, so the plan after the blip is a
// hit and prints byte for byte as the plan before it.
func TestTCPPlanCacheHitsAfterBlip(t *testing.T) {
	const script = "O = X * log(U %*% t(V) + 1e-3)"
	addrs := startWorkers(t, 2)
	proxy := chaostest.NewProxy(t, addrs[1])
	sess, co := tcpSessionVia(t, []string{addrs[0], proxy.Addr()}, script)
	before, err := sess.Explain(script)
	if err != nil {
		t.Fatal(err)
	}
	blip(t, co, proxy, 1)
	after, err := sess.Explain(script)
	if err != nil {
		t.Fatal(err)
	}
	if !sess.LastPlanCacheHit() {
		t.Error("the plan after a suspect → active blip missed the plan cache")
	}
	if after != before {
		t.Errorf("plan after the blip differs:\n%s\nbefore:\n%s", after, before)
	}
	if _, err := sess.Query(script); err != nil {
		t.Fatalf("query after the blip: %v", err)
	}
}

// TestTCPMembershipChurnLeavesNoGoroutines is the leak check after the
// membership paths: a worker joins through the listener, joins again (a
// no-op), runs tasks and leaves, and a seed worker blips through suspect back
// to active. Once the session and the workers close, no goroutine with a
// frame of internal/rt/remote on its stack remains.
func TestTCPMembershipChurnLeavesNoGoroutines(t *testing.T) {
	const script = "l = sum((X - U %*% t(V))^2)"
	workers := make([]*remote.Worker, 3)
	for i := range workers {
		w, err := remote.NewWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		workers[i] = w
	}
	proxy := chaostest.NewProxy(t, workers[1].Addr())
	sess, co := tcpSessionVia(t, []string{workers[0].Addr(), proxy.Addr()}, script)
	joinAddr, err := sess.ServeJoin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	joiner := workers[2].Addr()
	if _, err := remote.Register(joinAddr, joiner, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	epoch := co.ClusterEpoch()
	if _, err := remote.Register(joinAddr, joiner, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := co.ClusterEpoch(); got != epoch {
		t.Fatalf("re-joining a member moved the epoch %d -> %d", epoch, got)
	}
	if n := co.ActiveCount(); n != 3 {
		t.Fatalf("ActiveCount = %d after the join, want 3", n)
	}
	if _, err := sess.Query(script); err != nil {
		t.Fatal(err)
	}
	if err := remote.Leave(joinAddr, joiner, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	waitMembership(t, co, func() bool { return co.Members()[2].State == membership.Left })
	blip(t, co, proxy, 1)
	if _, err := sess.Query(script); err != nil {
		t.Fatal(err)
	}

	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	chaostest.WaitNoGoroutine(t, "remote.(*Worker).serveStream")
	chaostest.WaitNoGoroutine(t, "remote.(*Worker).controlLoop")
	for _, w := range workers {
		w.Close()
		w.Wait()
	}
	chaostest.WaitNoGoroutine(t, "fuseme/internal/rt/remote.")
}

// TestMeanOverManyBlocks: mean over a matrix of several blocks is the sum
// over the cell count, on every engine and on both runtimes. The partials of
// a mean used to be per-block means that the aggregation added up, so mean
// over nine 8x8 blocks of ones read 9.
func TestMeanOverManyBlocks(t *testing.T) {
	sessions := map[string]ClusterConfig{"sim": LocalClusterConfig(), "tcp": LocalClusterConfig()}
	tcp := sessions["tcp"]
	tcp.Runtime, tcp.Workers = "tcp", startWorkers(t, 2)
	sessions["tcp"] = tcp
	for name, cfg := range sessions {
		cfg.BlockSize = 8
		sess, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		x := sess.RandomDense("X", 20, 20, 0.5, 1.5, 4)
		var sum float64
		for _, v := range x.Dense() {
			sum += v
		}
		for _, eng := range []Engine{EngineFuseME, EngineSystemDS, EngineDistME, EngineMatFast, EngineTensorFlow} {
			if err := sess.SetEngine(eng); err != nil {
				t.Fatal(err)
			}
			out, err := sess.Query("M = mean(X * 0 + 1)\nA = mean(X)")
			if err != nil {
				t.Fatalf("%s/%s: %v", name, eng, err)
			}
			if got := out["M"].Dense()[0]; got != 1 {
				t.Errorf("%s/%s: mean of ones over 3x3 blocks = %g, want 1", name, eng, got)
			}
			if got, want := out["A"].Dense()[0], sum/400; math.Abs(got-want) > 1e-12 {
				t.Errorf("%s/%s: mean(X) = %g, want %g", name, eng, got, want)
			}
		}
	}
}

// TestPooledSessionsShareWorkerLanes: sessions that share one Scheduler
// share their workers' lanes. Four TCP sessions of two tenants, on two
// loopback workers with TasksPerNode 1 and every task stalled 5 ms, run
// their queries at once: on each worker, no task attempt is dispatched
// before the previous one's reply arrived. The windows are the
// coordinators' (journaled task events); the worker's own count is held to
// its lanes by TestActiveTasksStayWithinTheLanes (internal/rt/remote).
func TestPooledSessionsShareWorkerLanes(t *testing.T) {
	workers := make([]*remote.Worker, 2)
	addrs := make([]string, len(workers))
	for i := range workers {
		w, err := remote.NewWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		w.SetTaskDelay(5 * time.Millisecond)
		workers[i], addrs[i] = w, w.Addr()
	}
	cfg := LocalClusterConfig()
	cfg.BlockSize = 16
	cfg.TasksPerNode = 1
	cfg.Runtime, cfg.Workers = "tcp", addrs
	sc := NewScheduler(cfg.Nodes * cfg.TasksPerNode)
	j := NewJournal(0, nil)
	var queries sync.WaitGroup
	for i := range 4 {
		sess, err := NewSession(cfg, WithScheduler(sc), WithJournal(j), WithTracing())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		sess.SetTenant([]string{"a", "b"}[i%2], 1)
		bindTestInputs(sess)
		queries.Add(1)
		go func() {
			defer queries.Done()
			for range 2 {
				if _, err := sess.Query("O = X * log(U %*% t(V) + 1e-3)"); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	queries.Wait()

	windows := make([][]obs.TaskSample, len(workers))
	for _, e := range j.Retained() {
		if e.Type == obs.EvTask && e.Part == 0 && e.Task.Worker >= 0 {
			windows[e.Task.Worker] = append(windows[e.Task.Worker], *e.Task)
		}
	}
	for w, ts := range windows {
		sort.Slice(ts, func(a, b int) bool { return ts[a].Start.Before(ts[b].Start) })
		for k := 1; k < len(ts); k++ {
			if ts[k].Start.Before(ts[k-1].End) {
				t.Fatalf("worker %d ran two tasks at once: one dispatched %v before the previous one's reply",
					w, ts[k-1].End.Sub(ts[k].Start))
			}
		}
		if len(ts) == 0 {
			t.Errorf("worker %d ran no task", w)
		}
	}
}

// TestWorkerLanesAloneBoundTCPDispatch runs the coordinator at GOMAXPROCS=1
// over one worker of two lanes: the two tasks of a stage must still be in
// flight together, their journaled dispatch-to-reply windows overlapping.
// The workers run the tasks, not the coordinator's process, so its gate has
// no cap of its own; one capped at GOMAXPROCS would run them one by one.
func TestWorkerLanesAloneBoundTCPDispatch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w, err := remote.NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	w.SetTaskDelay(50 * time.Millisecond)
	cfg := LocalClusterConfig()
	cfg.BlockSize = 16
	cfg.Nodes, cfg.TasksPerNode = 1, 2
	cfg.Runtime, cfg.Workers = "tcp", []string{w.Addr()}
	j := NewJournal(0, nil)
	sess, err := NewSession(cfg, WithJournal(j), WithTracing())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	bindTestInputs(sess)
	if _, err := sess.Query("O = X * log(U %*% t(V) + 1e-3)"); err != nil {
		t.Fatal(err)
	}

	windows := map[string][]obs.TaskSample{} // per stage, its tasks' first attempts
	for _, e := range j.Retained() {
		if e.Type == obs.EvTask && e.Part == 0 {
			windows[e.Stage] = append(windows[e.Stage], *e.Task)
		}
	}
	checked := 0
	for stage, ts := range windows {
		if len(ts) < 2 {
			continue
		}
		checked++
		sort.Slice(ts, func(a, b int) bool { return ts[a].Start.Before(ts[b].Start) })
		if !ts[1].Start.Before(ts[0].End) {
			t.Errorf("stage %s: task %d dispatched %v after task %d's reply; the worker's two lanes ran them one by one",
				stage, ts[1].ID, ts[1].Start.Sub(ts[0].End), ts[0].ID)
		}
	}
	if checked == 0 {
		t.Fatalf("no stage ran two tasks: %v", windows)
	}
}
