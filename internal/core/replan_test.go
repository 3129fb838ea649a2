package core_test

import (
	"testing"

	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/cost"
	"fuseme/internal/dag"
	"fuseme/internal/obs"
	"fuseme/internal/workloads"
)

// replanCluster gives the replanner room to move: a parallelism floor of 12
// over grids big enough that eligible operators have real (P,Q) freedom at
// fixed R.
func replanCluster() cluster.Config {
	return cluster.Config{
		Nodes: 2, TasksPerNode: 1, Oversubscribe: 6,
		TaskMemBytes: 4 << 30,
		NetBandwidth: 1e9, CompBandwidth: 50e9, BlockSize: 64,
	}
}

// netBoundLearner returns a learner whose store has learned a net bandwidth
// far below the configured constant, as loopback calibration produces.
func netBoundLearner(cc cluster.Config, netBW float64) *obs.Learner {
	store := obs.NewCalibStore()
	key := obs.CalibKey{Workers: cc.Nodes, BlockSize: cc.BlockSize, KernelThreads: cc.KernelThreads}
	model := obs.ClusterModel{Nodes: cc.Nodes, NetBandwidth: cc.NetBandwidth, CompBandwidth: cc.EffectiveCompBandwidth()}
	store.Observe(key, model, obs.FlightRecord{
		Op: "seed", PredNetBytes: 1 << 30, PredComFlops: 1,
		MeasConsolidationBytes: int64(netBW * float64(cc.Nodes)), MeasWallSeconds: 1})
	return &obs.Learner{Store: store, Key: key, Model: model}
}

type opParams struct{ p, q, r int }

func snapshotParams(pp *core.PhysPlan) []opParams {
	out := make([]opParams, len(pp.Ops))
	for i, op := range pp.Ops {
		out[i] = opParams{op.P, op.Q, op.R}
	}
	return out
}

func TestReplannerDivergenceWindow(t *testing.T) {
	o := &obs.Obs{Calib: obs.NewCalibration()}
	r := &core.Replanner{Obs: o}
	cc := replanCluster()

	// Predicted: 2e9 bytes over 2 nodes at 1e9 B/s = 1s (net-bound).
	stage := obs.FlightRecord{Op: "CFO mul#1", PredNetBytes: 2e9, PredComFlops: 1, MeasWallSeconds: 3}
	o.StageDone(stage, nil)
	if div := r.Divergence(cc); div < 1.99 || div > 2.01 {
		t.Errorf("Divergence = %g, want 2.0 (|3s - 1s| / 1s)", div)
	}
	// The window is consumed: a second check with no new measurements sees
	// no divergence.
	if div := r.Divergence(cc); div != 0 {
		t.Errorf("second Divergence = %g, want 0 (window consumed)", div)
	}
	// New measurements open a new window.
	stage.MeasWallSeconds = 1.5
	o.StageDone(stage, nil)
	if div := r.Divergence(cc); div < 0.49 || div > 0.51 {
		t.Errorf("third Divergence = %g, want 0.5", div)
	}
}

func TestMaybeReplanBelowThresholdKeepsPlan(t *testing.T) {
	cc := replanCluster()
	pp, err := core.FuseME{}.Compile(workloads.GNMF(512, 384, 128, 1), cc)
	if err != nil {
		t.Fatal(err)
	}
	before := snapshotParams(pp)

	o := &obs.Obs{Calib: obs.NewCalibration()}
	// Even with a learner that would move the plan, an accurate model (no
	// measurements at all here) must not trigger a swap.
	r := &core.Replanner{Obs: o, Learn: netBoundLearner(cc, 8e6)}
	if r.MaybeReplan(pp, cc, map[string]bool{"X": true}) {
		t.Error("MaybeReplan swapped with zero divergence")
	}
	if got := snapshotParams(pp); !paramsEqual(got, before) {
		t.Errorf("plan changed below threshold: %v -> %v", before, got)
	}
	if r.Checks != 1 {
		t.Errorf("Checks = %d, want 1", r.Checks)
	}
}

func TestRecostMovesPQAndPinsR(t *testing.T) {
	cc := replanCluster()
	pp, err := core.FuseME{}.Compile(workloads.GNMF(512, 384, 128, 1), cc)
	if err != nil {
		t.Fatal(err)
	}
	before := snapshotParams(pp)

	// Learned: the wire is ~50x slower than configured, and X is
	// cache-resident — the conditions under which replication should move
	// off the cached operand.
	r := &core.Replanner{Obs: &obs.Obs{}, Learn: netBoundLearner(cc, 20e6)}
	if !r.Recost(pp, cc, map[string]bool{"X": true}) {
		t.Fatal("Recost changed nothing; the bit-safe search found no better (P,Q)")
	}
	after := snapshotParams(pp)
	moved := false
	for i := range before {
		if after[i].r != before[i].r {
			t.Errorf("op %d: R moved %d -> %d; R must stay pinned", i, before[i].r, after[i].r)
		}
		if after[i] != before[i] {
			moved = true
		}
	}
	if !moved {
		t.Error("no operator moved")
	}

	// Negative threshold re-costs at every check regardless of divergence.
	pp2, err := core.FuseME{}.Compile(workloads.GNMF(512, 384, 128, 1), cc)
	if err != nil {
		t.Fatal(err)
	}
	always := &core.Replanner{Threshold: -1, Obs: &obs.Obs{Calib: obs.NewCalibration()},
		Learn: netBoundLearner(cc, 20e6)}
	if !always.MaybeReplan(pp2, cc, map[string]bool{"X": true}) {
		t.Error("Threshold -1 did not force a re-cost")
	}
	if always.Replans != 1 {
		t.Errorf("Replans = %d, want 1", always.Replans)
	}
}

// residentPlanCost is the Eq. 2 cost of pp's operators at their current
// (P,Q,R), priced the way Recost prices them: learned bandwidths where the
// store has them, inputs named in resident discounted as cache hits.
func residentPlanCost(pp *core.PhysPlan, cc cluster.Config, l obs.CalibEntry, resident map[string]bool) float64 {
	m := cost.Model{Nodes: cc.Nodes, NetBW: cc.NetBandwidth, CompBW: cc.EffectiveCompBandwidth(),
		TaskMemBytes: cc.TaskMemBytes, MinTasks: cc.PlanSlots()}
	if l.NetBW > 0 {
		m.NetBW = l.NetBW
	}
	if l.CompBW > 0 {
		m.CompBW = l.CompBW
	}
	var total float64
	for _, op := range pp.Ops {
		if op.Plan.MainMM == nil {
			continue
		}
		ids := map[int]bool{}
		for _, in := range op.Plan.ExternalInputs() {
			if in.Op == dag.OpInput && resident[in.Name] {
				ids[in.ID] = true
			}
		}
		total += m.Cost(cost.AnalyzeCached(op.Plan, cc.BlockSize, ids), op.P, op.Q, op.R)
	}
	return total
}

// TestRecostResidentXLowersModelCost is the feedback loop's planning claim on
// model cost alone (no sockets, no clock): once X is cache-resident and the
// wire is known to be slow, the bit-safe re-cost picks a different (P,Q) whose
// cost under that model is below the compile-time plan's. The FixedR search
// space always contains the compile-time point, so a re-cost that ends up
// dearer picked something worse than doing nothing.
func TestRecostResidentXLowersModelCost(t *testing.T) {
	cc := replanCluster()
	pp, err := core.FuseME{}.Compile(workloads.GNMF(512, 384, 128, 1), cc)
	if err != nil {
		t.Fatal(err)
	}
	learner := netBoundLearner(cc, 20e6)
	learned, ok := learner.Store.Lookup(learner.Key)
	if !ok || learned.NetBW <= 0 || learned.NetBW >= cc.NetBandwidth {
		t.Fatalf("fixture learned net bandwidth %g, want in (0, %g)", learned.NetBW, cc.NetBandwidth)
	}
	resident := map[string]bool{"X": true}

	first := residentPlanCost(pp, cc, learned, resident)
	if first <= 0 {
		t.Fatalf("compile-time plan cost = %g, want > 0", first)
	}
	before := snapshotParams(pp)
	r := &core.Replanner{Obs: &obs.Obs{}, Learn: learner}
	if !r.Recost(pp, cc, resident) {
		t.Fatal("Recost kept the compile-time partitioning with X resident")
	}
	if paramsEqual(snapshotParams(pp), before) {
		t.Error("Recost reported a change but no (P,Q) moved")
	}
	if steady := residentPlanCost(pp, cc, learned, resident); steady >= first {
		t.Errorf("re-costed plan costs %g under the learned model, compile-time plan %g; want strictly less", steady, first)
	}
}

func TestRecostPinsAggregationRootedOps(t *testing.T) {
	cc := replanCluster()
	// ALSLoss's fused operator is rooted at sum(...): a re-partition would
	// regroup its per-task partial aggregates, so the bit-safe replanner must
	// not touch it no matter how wrong the model was.
	pp, err := core.FuseME{}.Compile(workloads.ALSLoss(512, 384, 128, 1), cc)
	if err != nil {
		t.Fatal(err)
	}
	before := snapshotParams(pp)
	r := &core.Replanner{Obs: &obs.Obs{}, Learn: netBoundLearner(cc, 1e6)}
	r.Recost(pp, cc, map[string]bool{"X": true})
	if got := snapshotParams(pp); !paramsEqual(got, before) {
		t.Errorf("aggregation-rooted plan moved: %v -> %v", before, got)
	}
}

func TestPhysPlanCloneIsolatesParams(t *testing.T) {
	cc := replanCluster()
	pp, err := core.FuseME{}.Compile(workloads.GNMF(512, 384, 128, 1), cc)
	if err != nil {
		t.Fatal(err)
	}
	before := snapshotParams(pp)
	cl := pp.Clone()

	r := &core.Replanner{Obs: &obs.Obs{}, Learn: netBoundLearner(cc, 20e6)}
	if !r.Recost(cl, cc, map[string]bool{"X": true}) {
		t.Fatal("Recost changed nothing on the clone")
	}
	if got := snapshotParams(pp); !paramsEqual(got, before) {
		t.Errorf("re-costing the clone mutated the original: %v -> %v", before, got)
	}
	if paramsEqual(snapshotParams(cl), before) {
		t.Error("clone did not move")
	}
}

func paramsEqual(a, b []opParams) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
