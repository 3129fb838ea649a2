package chaos

import (
	"testing"
	"time"

	"fuseme/internal/cluster"
	"fuseme/internal/membership"
	"fuseme/internal/rt/remote"
	"fuseme/internal/workloads"
)

func testCluster() cluster.Config {
	return cluster.Config{
		Nodes: 4, TasksPerNode: 4, TaskMemBytes: 1 << 30,
		NetBandwidth: 1e9, CompBandwidth: 50e9, BlockSize: 16,
		MaxTaskRetries: 3,
	}
}

func fastTransport() remote.Config {
	return remote.Config{
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  250 * time.Millisecond,
		DialTimeout:       500 * time.Millisecond,
	}
}

// TestChaosGNMFSoak is the headline soak: a four-worker cluster loses two
// workers and gains two replacements mid-GNMF (kills, a drain, and joins
// interleaved between iterations) with the block cache on — and the
// surviving cluster's factors must match an undisturbed simulated run within
// the repo's standard TCP tolerance (task completion order permutes
// partial-aggregate merges by at most a ULP), and its last iteration must
// still read X from the caches it has rebuilt.
func TestChaosGNMFSoak(t *testing.T) {
	cached := testCluster()
	cached.CacheBytes = 64 << 20
	cfg := Config{
		Workers:   4,
		Cluster:   cached,
		Transport: fastTransport(),
		Events: []Event{
			{Before: 1, Kind: Kill, Worker: 1},
			{Before: 2, Kind: Add},
			{Before: 2, Kind: Kill, Worker: 2},
			{Before: 3, Kind: Add},
			{Before: 4, Kind: Drain, Worker: 3},
		},
		Tolerance: 1e-9,
	}
	rep, err := Run(cfg, GNMFWorkload(96, 64, 8, 16, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.EventsApplied) != 5 {
		t.Errorf("applied %d events, want 5: %v", len(rep.EventsApplied), rep.EventsApplied)
	}
	if len(rep.KillRecovery) != 2 {
		t.Errorf("recorded %d kill recoveries, want 2", len(rep.KillRecovery))
	}
	for i, s := range rep.KillRecovery {
		if s <= 0 || s > 15 {
			t.Errorf("kill %d recovery = %gs, want (0, 15]", i, s)
		}
	}
	if last := rep.PerStep[len(rep.PerStep)-1]; last.CacheHits == 0 {
		t.Errorf("last step had no cache hits: %+v", last)
	}
	// 4 initial joins+activations already happened at construction; the 5
	// events add at least: 2x(suspect+dead), 2x(join+activate), 1 leave.
	if rep.FinalEpoch < 8+9 {
		t.Errorf("final epoch %d suspiciously low for this schedule", rep.FinalEpoch)
	}
	var dead, left, active int
	for _, m := range rep.FinalMembers {
		switch m.State {
		case membership.Dead:
			dead++
		case membership.Left:
			left++
		case membership.Active:
			active++
		}
	}
	if dead != 2 || left != 1 || active != 3 {
		t.Errorf("final members dead=%d left=%d active=%d, want 2/1/3: %+v",
			dead, left, active, rep.FinalMembers)
	}
}

// TestChaosAutoEncoder kills and replaces a worker between training epochs;
// the learned weights must match the undisturbed run.
func TestChaosAutoEncoder(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Config{
		Workers:   2,
		Cluster:   testCluster(),
		Transport: fastTransport(),
		Events: []Event{
			{Before: 1, Kind: Kill, Worker: 0},
			{Before: 1, Kind: Add},
		},
		Tolerance: 1e-9,
	}
	c := workloads.AutoEncoderConfig{Features: 32, Batch: 16, H1: 16, H2: 8}
	rep, err := Run(cfg, AutoEncoderWorkload(32, c, 16, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.EventsApplied) != 2 {
		t.Errorf("applied %d events, want 2: %v", len(rep.EventsApplied), rep.EventsApplied)
	}
}

// TestChaosUndisturbed is the control: no faults, and the TCP run must still
// match the simulated reference.
func TestChaosUndisturbed(t *testing.T) {
	cfg := Config{
		Workers:   2,
		Cluster:   testCluster(),
		Transport: fastTransport(),
		Tolerance: 1e-9,
	}
	rep, err := Run(cfg, GNMFWorkload(48, 32, 8, 16, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.EventsApplied) != 0 {
		t.Errorf("control run applied events: %v", rep.EventsApplied)
	}
}

// TestChaosDetectsDivergence ensures the harness actually fails when the
// tolerance is violated — a harness that cannot fail proves nothing. An
// unsatisfiable negative tolerance must turn any run into an error.
func TestChaosDetectsDivergence(t *testing.T) {
	cfg := Config{
		Workers:   2,
		Cluster:   testCluster(),
		Transport: fastTransport(),
		Events:    []Event{{Before: 1, Kind: Kill, Worker: 0}},
		Tolerance: -1,
	}
	if _, err := Run(cfg, GNMFWorkload(48, 32, 8, 16, 2)); err == nil {
		t.Fatal("harness accepted a run that violated the tolerance bound")
	}
}
