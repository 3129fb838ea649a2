// Differential suite for pipelined stage execution: the same workload with
// prefetch and work-stealing on and off (PrefetchBytes < 0), on the simulated
// and the TCP backend, across 1–4 workers, must produce bit-identical results
// — the ordered stage reducer folds partials in task-index order regardless
// of completion order — and, with work-stealing pinned off, identical cache
// hit counts per iteration. The simulated cluster has no prefetch or
// stealing, so there the two arms are the same code path run twice: a
// determinism check over its concurrent slot pool.
package exec_test

import (
	"math"
	"testing"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/rt"
	"fuseme/internal/rt/remote"
	"fuseme/internal/workloads"
)

func pipelineTestConfig(nodes int) cluster.Config {
	return cluster.Config{
		Nodes: nodes, TasksPerNode: 4, TaskMemBytes: 1 << 30,
		NetBandwidth: 1e9, CompBandwidth: 50e9, BlockSize: 16,
		MaxTaskRetries: 2,
	}
}

// openBackend constructs one runtime: "sim" in-process, "tcp" over n
// in-process workers (each with the config's cache budget, when set).
func openBackend(t *testing.T, backend string, cfg cluster.Config) rt.Runtime {
	t.Helper()
	switch backend {
	case "sim":
		return cluster.MustNew(cfg)
	case "tcp":
		addrs := make([]string, cfg.Nodes)
		for i := range addrs {
			w, err := remote.NewWorker("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { w.Close() })
			if cfg.CacheBytes > 0 {
				w.SetCacheBytes(cfg.CacheBytes)
			}
			addrs[i] = w.Addr()
		}
		co, err := remote.NewCoordinatorConfig(cfg, addrs, remote.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { co.Close() })
		return co
	}
	t.Fatalf("unknown backend %q", backend)
	return nil
}

// requireBitIdentical fails unless a and b are the same shape with the same
// float64 bit pattern at every element.
func requireBitIdentical(t *testing.T, what string, a, b *block.Matrix) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", what, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				t.Fatalf("%s: differs at (%d,%d): %v vs %v (bit-level)",
					what, i, j, a.At(i, j), b.At(i, j))
			}
		}
	}
}

func pipelineGNMFInputs(bs int) (x, u, v *block.Matrix) {
	const users, items, k = 48, 32, 8
	x = block.RandomDense(users, items, bs, 0.5, 1.5, 21)
	u = block.RandomDense(k, items, bs, 0.2, 0.8, 22)
	v = block.RandomDense(users, k, bs, 0.2, 0.8, 23)
	return x, u, v
}

func runPipelineGNMF(t *testing.T, backend string, cfg cluster.Config, iters int) *workloads.GNMFResult {
	t.Helper()
	rtm := openBackend(t, backend, cfg)
	x, u, v := pipelineGNMFInputs(cfg.BlockSize)
	res, err := workloads.RunGNMF(core.FuseME{}, rtm, x, u, v, iters)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// noPrefetch returns cfg with prefetch (and the stealing that rides on it)
// switched off.
func noPrefetch(cfg cluster.Config) cluster.Config {
	cfg.PrefetchBytes = -1
	return cfg
}

// TestPipelineDiffGNMF: GNMF with prefetch and stealing on must be
// bit-identical to GNMF without them on both backends across 1–4 workers,
// and with stealing pinned off the block cache must hit identically per
// iteration.
func TestPipelineDiffGNMF(t *testing.T) {
	const iters = 3
	for _, backend := range []string{"sim", "tcp"} {
		for nodes := 1; nodes <= 4; nodes++ {
			t.Run(backend+"/"+string(rune('0'+nodes))+"w", func(t *testing.T) {
				on := runPipelineGNMF(t, backend, pipelineTestConfig(nodes), iters)
				off := runPipelineGNMF(t, backend, noPrefetch(pipelineTestConfig(nodes)), iters)
				requireBitIdentical(t, "U prefetch on vs off", on.U, off.U)
				requireBitIdentical(t, "V prefetch on vs off", on.V, off.V)
				if off.Total.PrefetchBlocks != 0 || off.Total.StealTasks != 0 {
					t.Errorf("run without prefetch reported %d prefetched blocks, %d steals; want 0, 0",
						off.Total.PrefetchBlocks, off.Total.StealTasks)
				}

				// Cache-hit equality needs home-pinned tasks: stealing moves
				// tasks off the workers that cached their inputs, which is
				// legal for results but not for exact per-worker hit counts.
				// One lane per worker with 4 waves of over-decomposition
				// gives every worker a queue of sequential tasks, so the
				// prefetcher has a genuine "next task" to pull ahead for
				// (prefetch targets task t + lanes; with one wave that index
				// is past the stage).
				cachedCfg := pipelineTestConfig(nodes)
				cachedCfg.TasksPerNode = 1
				cachedCfg.Oversubscribe = 4
				cachedCfg.CacheBytes = 64 << 20
				cachedCfg.DisableStealing = true
				cached := runPipelineGNMF(t, backend, cachedCfg, iters)
				cachedOff := runPipelineGNMF(t, backend, noPrefetch(cachedCfg), iters)
				requireBitIdentical(t, "U cached prefetch on vs off", cached.U, cachedOff.U)
				requireBitIdentical(t, "V cached prefetch on vs off", cached.V, cachedOff.V)
				for i := range cached.PerIter {
					p, b := cached.PerIter[i], cachedOff.PerIter[i]
					if p.CacheHits != b.CacheHits || p.CacheMisses != b.CacheMisses {
						t.Errorf("iteration %d: hits/misses %d/%d with prefetch, %d/%d without",
							i, p.CacheHits, p.CacheMisses, b.CacheHits, b.CacheMisses)
					}
				}
				if cached.Total.CacheHits == 0 {
					t.Error("cached run hit nothing")
				}
				// Only a runtime that moves bytes has anything to prefetch.
				if got := cached.Total.PrefetchBlocks; (backend == "tcp") != (got > 0) {
					t.Errorf("%s cached run prefetched %d blocks from the second iteration on", backend, got)
				}
			})
		}
	}
}

// TestPipelineDiffSimTCP: the two backends agree with each other, not just
// each with itself — sim and pipelined TCP produce bit-identical GNMF factors (both fold partials in the same task order and
// run the same kernels; FME1 block transport is value-exact).
func TestPipelineDiffSimTCP(t *testing.T) {
	const iters = 2
	for nodes := 1; nodes <= 4; nodes++ {
		sim := runPipelineGNMF(t, "sim", pipelineTestConfig(nodes), iters)
		tcp := runPipelineGNMF(t, "tcp", pipelineTestConfig(nodes), iters)
		requireBitIdentical(t, "U sim vs tcp", sim.U, tcp.U)
		requireBitIdentical(t, "V sim vs tcp", sim.V, tcp.V)
	}
}

// TestPipelineDiffAutoEncoder: one SGD epoch of the AutoEncoder — a long
// chain of fused stages whose gradients fold through the ordered reducer —
// is bit-identical with prefetch and stealing on or off on both backends.
func TestPipelineDiffAutoEncoder(t *testing.T) {
	aeCfg := workloads.AutoEncoderConfig{Features: 24, Batch: 16, H1: 8, H2: 4}
	run := func(t *testing.T, backend string, cfg cluster.Config) (*workloads.AEState, float64) {
		rtm := openBackend(t, backend, cfg)
		x := block.RandomDense(32, aeCfg.Features, cfg.BlockSize, 0, 1, 31)
		state := workloads.InitAutoEncoder(aeCfg, cfg.BlockSize, 7)
		loss, err := workloads.RunAutoEncoderEpoch(core.FuseME{}, rtm, x, aeCfg, 0.1, state)
		if err != nil {
			t.Fatal(err)
		}
		return state, loss
	}
	for _, backend := range []string{"sim", "tcp"} {
		for _, nodes := range []int{2, 3} {
			t.Run(backend+"/"+string(rune('0'+nodes))+"w", func(t *testing.T) {
				pState, pLoss := run(t, backend, pipelineTestConfig(nodes))
				bState, bLoss := run(t, backend, noPrefetch(pipelineTestConfig(nodes)))
				if math.Float64bits(pLoss) != math.Float64bits(bLoss) {
					t.Errorf("loss %v vs %v (bit-level)", pLoss, bLoss)
				}
				requireBitIdentical(t, "W1", pState.W1, bState.W1)
				requireBitIdentical(t, "W2", pState.W2, bState.W2)
				requireBitIdentical(t, "W3", pState.W3, bState.W3)
				requireBitIdentical(t, "W4", pState.W4, bState.W4)
				requireBitIdentical(t, "B1", pState.B1, bState.B1)
				requireBitIdentical(t, "B4", pState.B4, bState.B4)
			})
		}
	}
}
