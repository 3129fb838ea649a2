package remote_test

import (
	"math"
	"testing"

	"fuseme/internal/block"
	"fuseme/internal/blockcache"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/lang"
	"fuseme/internal/rt"
	"fuseme/internal/rt/remote"
	"fuseme/internal/workloads"
)

const testCacheBudget = 64 << 20

// startCachedCluster is startCluster with the block cache enabled: the
// coordinator's configuration carries the budget, so planners attach stage
// epochs and every stage ships it to the workers, which start without one.
func startCachedCluster(t *testing.T, n int) (*remote.Coordinator, []*remote.Worker) {
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
	cfg := testConfig()
	cfg.CacheBytes = testCacheBudget
	co, err := remote.NewCoordinator(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	return co, workers
}

func gnmfInputs(bs int) (x, u, v *block.Matrix) {
	const users, items, k = 48, 32, 8
	x = block.RandomDense(users, items, bs, 0.5, 1.5, 11)
	u = block.RandomDense(k, items, bs, 0.2, 0.8, 12)
	v = block.RandomDense(users, k, bs, 0.2, 0.8, 13)
	return x, u, v
}

// TestRemoteGNMFCacheDifferential is the TCP half of the differential cache
// suite: GNMF over real workers with the cache on must be bit-identical to
// the uncached run and must ship strictly fewer wire bytes per iteration
// from the second iteration on (X no longer travels).
func TestRemoteGNMFCacheDifferential(t *testing.T) {
	const iters = 3
	bs := testConfig().BlockSize

	coldCo, _ := startCluster(t, 2)
	x, u, v := gnmfInputs(bs)
	cold, err := workloads.RunGNMF(core.FuseME{}, coldCo, x, u.Clone(), v.Clone(), iters)
	if err != nil {
		t.Fatal(err)
	}

	warmCo, _ := startCachedCluster(t, 2)
	x2, u2, v2 := gnmfInputs(bs)
	warm, err := workloads.RunGNMF(core.FuseME{}, warmCo, x2, u2, v2, iters)
	if err != nil {
		t.Fatal(err)
	}

	// Over TCP, task completion order is nondeterministic and partial
	// aggregates merge in arrival order, so two runs of the *same* plan can
	// differ by a ULP regardless of caching (the sim backend is where the
	// zero-tolerance differential lives). Compare with the standard tight
	// relative tolerance here.
	compareMatrices(t, "U cached vs uncached", warm.U, cold.U)
	compareMatrices(t, "V cached vs uncached", warm.V, cold.V)
	for i := 1; i < iters; i++ {
		w, c := warm.PerIter[i], cold.PerIter[i]
		if w.CacheHits == 0 {
			t.Errorf("iteration %d: no cache hits over TCP", i)
		}
		if w.ConsolidationBytes >= c.ConsolidationBytes {
			t.Errorf("iteration %d: cached consolidation %d not below uncached %d",
				i, w.ConsolidationBytes, c.ConsolidationBytes)
		}
		wWire := w.TotalCommBytes() + w.ExtraWireBytes
		cWire := c.TotalCommBytes() + c.ExtraWireBytes
		if wWire >= cWire {
			t.Errorf("iteration %d: cached wire bytes %d not below uncached %d", i, wWire, cWire)
		}
	}
}

// TestRemoteCacheConformsToSim: the same GNMF run on the simulated backend
// and over TCP workers must agree exactly on cache hit counts and on the
// consolidation-byte savings — deterministic task→node affinity plus
// generation visibility make the two backends' cache behaviour identical.
func TestRemoteCacheConformsToSim(t *testing.T) {
	const iters = 3
	bs := testConfig().BlockSize

	simCfg := testConfig()
	simCfg.CacheBytes = testCacheBudget
	cl := cluster.MustNew(simCfg)
	x, u, v := gnmfInputs(bs)
	sim, err := workloads.RunGNMF(core.FuseME{}, cl, x, u, v, iters)
	if err != nil {
		t.Fatal(err)
	}

	// A stolen task would cache its inputs away from its home; no stage
	// here has more tasks than a worker has lanes, so none is stolen and
	// every task runs at the home the simulated cache uses.
	co, _ := startCachedCluster(t, 2)
	x2, u2, v2 := gnmfInputs(bs)
	rem, err := workloads.RunGNMF(core.FuseME{}, co, x2, u2, v2, iters)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < iters; i++ {
		s, r := sim.PerIter[i], rem.PerIter[i]
		if s.CacheHits != r.CacheHits || s.CacheMisses != r.CacheMisses {
			t.Errorf("iteration %d: sim hits/misses %d/%d, tcp %d/%d",
				i, s.CacheHits, s.CacheMisses, r.CacheHits, r.CacheMisses)
		}
		if s.CacheSavedBytes != r.CacheSavedBytes {
			t.Errorf("iteration %d: sim saved %d bytes, tcp %d", i, s.CacheSavedBytes, r.CacheSavedBytes)
		}
	}
	if n := rem.Total.StealTasks; n != 0 {
		t.Errorf("tcp run stole %d tasks, want 0", n)
	}
}

// TestRemoteCacheInvalidationOnRebind: rebinding an input between queries
// must never serve its stale blocks (the result matches an uncached
// reference), and the stale residency is reclaimed by the time the query
// returns: each task drops the old epoch from its worker's cache itself.
func TestRemoteCacheInvalidationOnRebind(t *testing.T) {
	// The residency check below compares exact byte totals across runs; a
	// stolen task would cache its inputs on a second worker (none is: every
	// stage fits its workers' lanes, and StealTasks is checked below).
	co, workers := startCachedCluster(t, 2)
	bs := testConfig().BlockSize

	const rows, cols, k = 48, 32, 8
	mk := func(seed int64) *block.Matrix { return block.RandomDense(rows, cols, bs, 0.5, 1.5, seed) }
	inputs := map[string]*block.Matrix{
		"X": mk(21),
		"U": block.RandomDense(k, cols, bs, 0.2, 0.8, 22),
		"V": block.RandomDense(rows, k, bs, 0.2, 0.8, 23),
	}
	decls := map[string]lang.InputDecl{}
	for name, m := range inputs {
		decls[name] = lang.InputDecl{Rows: m.Rows, Cols: m.Cols, Sparsity: m.Density()}
	}
	g, err := lang.Parse(`U2 = U * (t(V) %*% X) / (t(V) %*% V %*% U)`, decls)
	if err != nil {
		t.Fatal(err)
	}
	resident := func() int64 {
		var total int64
		for _, w := range workers {
			total += w.CacheStats().ResidentBytes
		}
		return total
	}

	if _, _, err := core.Run(core.FuseME{}, g, co, inputs); err != nil {
		t.Fatal(err)
	}
	resident1 := resident()
	if resident1 == 0 {
		t.Fatal("no blocks resident after the first run")
	}

	stolen := co.Stats().StealTasks
	co.ResetStats()
	warmOut, _, err := core.Run(core.FuseME{}, g, co, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if hits := co.Stats().CacheHits; hits == 0 {
		t.Error("repeat query with unchanged bindings produced no hits")
	}
	stolen += co.Stats().StealTasks

	// Rebind X; the stale blocks must not be served, and the tasks of the
	// next run drop them from the caches they read.
	inputs["X"] = mk(99)
	co.ResetStats()
	out, _, err := core.Run(core.FuseME{}, g, co, inputs)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := core.Run(core.FuseME{}, g, cluster.MustNew(testConfig()), inputs)
	if err != nil {
		t.Fatal(err)
	}
	compareMatrices(t, "U2 after rebind", out["U2"], ref["U2"])
	if block.EqualApprox(out["U2"], warmOut["U2"], 0) {
		t.Fatal("rebinding X did not change the result — stale blocks were served")
	}
	if stolen += co.Stats().StealTasks; stolen != 0 {
		t.Errorf("%d tasks stolen, want 0", stolen)
	}

	// X's old and new blocks are the same size, so residency is back at the
	// first run's level as soon as the run returns.
	if got := resident(); got != resident1 {
		t.Errorf("resident bytes after rebind = %d, want %d (stale blocks not reclaimed)", got, resident1)
	}
}

// TestRebindLeavesNoStaleEpoch: on either backend, once the run after a
// rebind returns, no node or worker cache holds a block of the input's old
// epoch. Nothing is pushed or awaited: every task drops the stale epochs its
// stage names before it reads its cache, and each cache serves some task.
func TestRebindLeavesNoStaleEpoch(t *testing.T) {
	bs := testConfig().BlockSize
	for _, backend := range []string{"sim", "tcp"} {
		t.Run(backend, func(t *testing.T) {
			var rtm rt.Runtime
			var caches []*blockcache.Cache
			var workers []*remote.Worker
			if backend == "sim" {
				cfg := testConfig()
				cfg.CacheBytes = testCacheBudget
				cl := cluster.MustNew(cfg)
				// Task i of a stage carries node i's cache (its home).
				caches = make([]*blockcache.Cache, cfg.Nodes)
				if err := cl.RunStage("caches", cfg.Nodes, func(task *cluster.Task) error {
					caches[task.ID] = task.Cache()
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				rtm = cl
			} else {
				rtm, workers = startCachedCluster(t, 2)
			}
			x, u, v := gnmfInputs(bs)
			res, err := workloads.RunGNMF(core.FuseME{}, rtm, x, u, v, 2)
			if err != nil {
				t.Fatal(err)
			}
			// A worker builds its cache from the first stage that ships a
			// budget, and keeps it while the budget stays the same.
			for _, w := range workers {
				caches = append(caches, w.BlockCache())
			}
			// The cache keys X by its node in the graph FuseME plans.
			pp, err := core.FuseME{}.Compile(workloads.GNMF(x.Rows, x.Cols, u.Rows, x.Density()), rtm.Config())
			if err != nil {
				t.Fatal(err)
			}
			var xNode int
			for _, in := range pp.Graph.InputNodes() {
				if in.Name == "X" {
					xNode = in.ID
				}
			}
			holdsOldX := func(c *blockcache.Cache) (n int) {
				for bi := 0; bi < x.BlockRows(); bi++ {
					for bj := 0; bj < x.BlockCols(); bj++ {
						if _, ok := c.Get(blockcache.Key{Node: xNode, Epoch: x.Epoch(), BI: bi, BJ: bj}, blockcache.Scope{Floor: math.MaxUint64}); ok {
							n++
						}
					}
				}
				return n
			}
			held := 0
			for _, c := range caches {
				held += holdsOldX(c)
			}
			if held == 0 {
				t.Fatal("no cache holds X's blocks before the rebind")
			}

			x2 := block.RandomDense(x.Rows, x.Cols, bs, 0.5, 1.5, 99)
			if _, err := workloads.RunGNMF(core.FuseME{}, rtm, x2, res.U, res.V, 1); err != nil {
				t.Fatal(err)
			}
			for i, c := range caches {
				if n := holdsOldX(c); n != 0 {
					t.Errorf("cache %d still holds %d blocks of X's old epoch", i, n)
				}
			}
		})
	}
}

// TestRemoteCacheWorkerDeath: killing a cache-holding worker mid-run must
// not corrupt results — retried tasks land on survivors, repopulate their
// caches, and later iterations still hit.
func TestRemoteCacheWorkerDeath(t *testing.T) {
	const iters = 3
	bs := testConfig().BlockSize

	cl := cluster.MustNew(testConfig())
	x, u, v := gnmfInputs(bs)
	ref, err := workloads.RunGNMF(core.FuseME{}, cl, x, u.Clone(), v.Clone(), iters)
	if err != nil {
		t.Fatal(err)
	}

	co, workers := startCachedCluster(t, 3)
	workers[1].KillAfterTasks(3) // dies early in the first iteration
	res, err := workloads.RunGNMF(core.FuseME{}, co, x, u, v, iters)
	if err != nil {
		t.Fatalf("GNMF did not survive worker death: %v", err)
	}
	compareMatrices(t, "U after worker death", res.U, ref.U)
	compareMatrices(t, "V after worker death", res.V, ref.V)
	if co.ActiveCount() != 2 {
		t.Errorf("ActiveCount = %d, want 2", co.ActiveCount())
	}
	last := res.PerIter[iters-1]
	if last.CacheHits == 0 {
		t.Error("no cache hits after the survivors repopulated")
	}
}

// TestGNMFTransposeMembersSimEqualsTCP: under FuseME's plan, whose CFOs read
// GNMF's t(V) and t(U) as members instead of a Map stage's output, three
// iterations over TCP workers give the in-process run's factors bit for bit.
func TestGNMFTransposeMembersSimEqualsTCP(t *testing.T) {
	const iters = 3
	bs := testConfig().BlockSize
	x, u, v := gnmfInputs(bs)
	sim, err := workloads.RunGNMF(core.FuseME{}, cluster.MustNew(testConfig()), x, u.Clone(), v.Clone(), iters)
	if err != nil {
		t.Fatal(err)
	}
	co, _ := startCluster(t, 2)
	rem, err := workloads.RunGNMF(core.FuseME{}, co, x, u, v, iters)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		name     string
		sim, rem *block.Matrix
	}{{"U", sim.U, rem.U}, {"V", sim.V, rem.V}} {
		for i := 0; i < m.sim.Rows; i++ {
			for j := 0; j < m.sim.Cols; j++ {
				if s, r := m.sim.At(i, j), m.rem.At(i, j); math.Float64bits(s) != math.Float64bits(r) {
					t.Fatalf("%s(%d,%d): tcp %v, sim %v", m.name, i, j, r, s)
				}
			}
		}
	}
	if s, r := sim.Total.Stages, rem.Total.Stages; s != r || s != iters*8 {
		t.Errorf("stages: sim %d, tcp %d, want %d: four CFOs of two phases each per iteration", s, r, iters*8)
	}
}
