package workloads

import (
	"testing"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/obs"
	"fuseme/internal/rt"
	"fuseme/internal/rt/remote"
)

// adaptiveReplanner builds an aggressive replanner for differential tests: a
// negative threshold re-costs at every iteration boundary, and the seeded
// store says the wire is ~100x slower than configured, so any legal (P,Q)
// move WILL be taken. Bit-identity must survive the worst case.
func adaptiveReplanner(cfg cluster.Config) *core.Replanner {
	store := obs.NewCalibStore()
	key := obs.CalibKey{Workers: cfg.Nodes, BlockSize: cfg.BlockSize, KernelThreads: cfg.KernelThreads}
	model := obs.ClusterModel{Nodes: cfg.Nodes, NetBandwidth: cfg.NetBandwidth, CompBandwidth: cfg.EffectiveCompBandwidth()}
	store.Observe(key, model, obs.FlightRecord{
		Op: "seed", PredNetBytes: 1 << 30, PredComFlops: 1,
		MeasConsolidationBytes: int64(cfg.NetBandwidth / 100 * float64(cfg.Nodes)), MeasWallSeconds: 1})
	learn := &obs.Learner{Store: store, Key: key, Model: model}
	return &core.Replanner{Threshold: -1, Obs: &obs.Obs{Calib: obs.NewCalibration(), Learn: learn}, Learn: learn}
}

// adaptiveGNMFCase holds the shared GNMF dimensions: k spans two blocks so
// the eligible operators have (P,Q) freedom at fixed R (a one-block k axis
// leaves nothing for the replanner to move).
const (
	adaptUsers, adaptItems, adaptK, adaptIters = 30, 24, 8, 4
)

func adaptiveGNMFInputs() (x, u, v *block.Matrix) {
	x = block.RandomDense(adaptUsers, adaptItems, 6, 0.5, 1.5, 1)
	u = block.RandomDense(adaptK, adaptItems, 6, 0.2, 0.8, 2)
	v = block.RandomDense(adaptUsers, adaptK, 6, 0.2, 0.8, 3)
	return
}

// TestGNMFAdaptiveBitIdentity is the sim half of the replan differential
// suite: the same GNMF run with re-planning forced at every boundary must
// produce bit-identical factors to the plain runner, while actually swapping
// plans (a test in which nothing moved would prove nothing).
func TestGNMFAdaptiveBitIdentity(t *testing.T) {
	x, u0, v0 := adaptiveGNMFInputs()
	plain, err := RunGNMF(core.FuseME{}, cachedCluster(), x, u0.Clone(), v0.Clone(), adaptIters)
	if err != nil {
		t.Fatal(err)
	}

	cl := cachedCluster()
	rp := adaptiveReplanner(cl.Config())
	calls := 0
	adaptive, err := RunGNMFAdaptive(core.FuseME{}, cl, x, u0.Clone(), v0.Clone(), adaptIters,
		AdaptiveConfig{Replanner: rp, OnIteration: func(it int, pp *core.PhysPlan, replanned bool) {
			calls++
		}})
	if err != nil {
		t.Fatal(err)
	}

	if !block.EqualApprox(adaptive.U, plain.U, 0) || !block.EqualApprox(adaptive.V, plain.V, 0) {
		t.Fatal("adaptive GNMF factors differ from plain run")
	}
	if calls != adaptIters {
		t.Errorf("OnIteration called %d times, want %d", calls, adaptIters)
	}
	if rp.Checks != adaptIters-1 {
		t.Errorf("Checks = %d, want %d (one per boundary)", rp.Checks, adaptIters-1)
	}
	if rp.Replans == 0 {
		t.Error("replanner never swapped a plan; the differential test exercised nothing")
	}
}

// TestGNMFAdaptiveBitIdentityTCP repeats the differential over real TCP
// workers: serialization, worker-side caching and replication must not break
// the bit-identity guarantee when the plan swaps between iterations.
func TestGNMFAdaptiveBitIdentityTCP(t *testing.T) {
	cfg := cachedCluster().Config()
	newTCP := func() (rt.Runtime, func(), error) {
		addrs := make([]string, cfg.Nodes)
		var closers []func()
		for i := range addrs {
			w, err := remote.NewWorker("127.0.0.1:0")
			if err != nil {
				return nil, nil, err
			}
			closers = append(closers, func() { w.Close() })
			addrs[i] = w.Addr()
		}
		co, err := remote.NewCoordinatorConfig(cfg, addrs, remote.Config{})
		if err != nil {
			return nil, nil, err
		}
		closers = append(closers, func() { co.Close() })
		return co, func() {
			for i := len(closers) - 1; i >= 0; i-- {
				closers[i]()
			}
		}, nil
	}

	x, u0, v0 := adaptiveGNMFInputs()
	plainRT, cleanup, err := newTCP()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	plain, err := RunGNMF(core.FuseME{}, plainRT, x, u0.Clone(), v0.Clone(), adaptIters)
	if err != nil {
		t.Fatal(err)
	}

	adaptRT, cleanup2, err := newTCP()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup2()
	rp := adaptiveReplanner(cfg)
	adaptive, err := RunGNMFAdaptive(core.FuseME{}, adaptRT, x, u0.Clone(), v0.Clone(), adaptIters,
		AdaptiveConfig{Replanner: rp})
	if err != nil {
		t.Fatal(err)
	}

	if !block.EqualApprox(adaptive.U, plain.U, 0) || !block.EqualApprox(adaptive.V, plain.V, 0) {
		t.Fatal("adaptive GNMF factors over TCP differ from plain run")
	}
	if rp.Replans == 0 {
		t.Error("replanner never swapped a plan over TCP")
	}
}

// TestAutoEncoderAdaptiveBitIdentity: the AutoEncoder differential. Its
// grids are small enough that re-picks rarely trigger, but the adaptive
// runner still checks every batch boundary; loss and weights must match the
// plain epoch bit-for-bit.
func TestAutoEncoderAdaptiveBitIdentity(t *testing.T) {
	c := AutoEncoderConfig{Features: 12, Batch: 8, H1: 5, H2: 2}
	x := block.RandomDense(32, c.Features, 6, 0, 1, 7)

	plainState := InitAutoEncoder(c, 6, 8)
	plainLoss, err := RunAutoEncoderEpoch(core.FuseME{}, cachedCluster(), x, c, 0.2, plainState)
	if err != nil {
		t.Fatal(err)
	}

	cl := cachedCluster()
	rp := adaptiveReplanner(cl.Config())
	adaptState := InitAutoEncoder(c, 6, 8)
	adaptLoss, err := RunAutoEncoderEpochAdaptive(core.FuseME{}, cl, x, c, 0.2, adaptState,
		AdaptiveConfig{Replanner: rp})
	if err != nil {
		t.Fatal(err)
	}

	if adaptLoss != plainLoss {
		t.Fatalf("adaptive AutoEncoder loss %v != plain %v", adaptLoss, plainLoss)
	}
	for i, pair := range [][2]*block.Matrix{
		{adaptState.W1, plainState.W1}, {adaptState.W2, plainState.W2},
		{adaptState.W3, plainState.W3}, {adaptState.W4, plainState.W4},
		{adaptState.B1, plainState.B1}, {adaptState.B4, plainState.B4},
	} {
		if !block.EqualApprox(pair[0], pair[1], 0) {
			t.Fatalf("adaptive AutoEncoder state %d differs from plain run", i)
		}
	}
	if rp.Checks == 0 {
		t.Error("no boundary checks ran")
	}
}

// TestAdaptiveRequiresReplanner: the adaptive runners refuse to run without
// a replanner rather than silently degrading to the plain path.
func TestAdaptiveRequiresReplanner(t *testing.T) {
	x, u0, v0 := adaptiveGNMFInputs()
	if _, err := RunGNMFAdaptive(core.FuseME{}, testCluster(), x, u0, v0, 1, AdaptiveConfig{}); err == nil {
		t.Error("RunGNMFAdaptive without a Replanner did not fail")
	}
	c := AutoEncoderConfig{Features: 12, Batch: 8, H1: 5, H2: 2}
	if _, err := RunAutoEncoderEpochAdaptive(core.FuseME{}, testCluster(), x, c, 0.2,
		InitAutoEncoder(c, 6, 8), AdaptiveConfig{}); err == nil {
		t.Error("RunAutoEncoderEpochAdaptive without a Replanner did not fail")
	}
}

// TestResidentInputs: the residency detector must key on content epochs, not
// pointers — an in-place mutation (epoch restamp) disqualifies a binding
// even when the same *block.Matrix is rebound.
func TestResidentInputs(t *testing.T) {
	cl := cachedCluster()
	x := block.RandomDense(12, 12, 6, 0, 1, 1)
	w := block.RandomDense(12, 12, 6, 0, 1, 2)
	bound := map[string]*block.Matrix{"X": x, "W": w}

	if res := residentInputs(cl, bound, nil); res != nil {
		t.Errorf("first iteration reported residents: %v", res)
	}
	snap := epochSnapshot(bound)
	if res := residentInputs(cl, bound, snap); !res["X"] || !res["W"] {
		t.Errorf("unchanged bindings not resident: %v", res)
	}

	// In-place update: same pointer, new epoch — no longer resident.
	applySGD(w, block.RandomDense(12, 12, 6, 0, 1, 3), 0.1)
	if res := residentInputs(cl, bound, snap); res["W"] {
		t.Error("mutated matrix still reported resident")
	} else if !res["X"] {
		t.Errorf("X lost residency: %v", res)
	}

	// No cache, no residents: discounts must not apply.
	if res := residentInputs(testCluster(), bound, snap); res != nil {
		t.Errorf("cacheless cluster reported residents: %v", res)
	}
}
