package fuseme

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fuseme/internal/core"
	"fuseme/internal/obs"
)

// seedNetBound folds one synthetic net-bound stage into a store so the
// session's cluster shape has a learned bandwidth far below the configured
// constant — the condition under which a re-cost wants to move replication
// off cache-resident inputs.
func seedNetBound(cs *CalibrationStore, cfg ClusterConfig, netBW float64) {
	cs.s.Observe(calibKeyFor(cfg), core.EqModel(cfg.internal()), obs.FlightRecord{
		Op: "seed", PredNetBytes: 1 << 30, PredComFlops: 1,
		MeasConsolidationBytes: int64(netBW * float64(cfg.Nodes)), MeasWallSeconds: 1})
}

// TestCalibrationSessionLearnsAndSaves: a session attached to a persisted
// store learns entries from executed stages and saves them on Close; a new
// session picks the file back up.
func TestCalibrationSessionLearnsAndSaves(t *testing.T) {
	path := filepath.Join(t.TempDir(), "calib.json")
	cfg := LocalClusterConfig()
	cfg.BlockSize = 16
	sess, err := NewSession(cfg, WithCalibration(path))
	if err != nil {
		t.Fatal(err)
	}
	bindTestInputs(sess)
	if _, err := sess.Query("O = X * log(U %*% t(V) + 1e-3)"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("Close did not persist the store: %v", err)
	}

	cs, err := OpenCalibrationStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Len() == 0 {
		t.Fatal("no calibration entries learned from the run")
	}
	if cs.Generation() == 0 {
		t.Error("generation still zero after learning")
	}
}

// TestCalibrationEnvFallback: FUSEME_CALIB attaches a store when no option
// was given, and an explicit option still wins over a bad env value.
func TestCalibrationEnvFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "env-calib.json")
	t.Setenv(EnvCalib, path)
	sess := newTestSession(t)
	bindTestInputs(sess)
	if _, err := sess.Query("O = X * log(U %*% t(V) + 1e-3)"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("env-attached store not saved on Close: %v", err)
	}
}

// TestWithCalibrationErrors: empty path and double configuration fail at
// session construction.
func TestWithCalibrationErrors(t *testing.T) {
	cfg := LocalClusterConfig()
	if _, err := NewSession(cfg, WithCalibration("")); err == nil {
		t.Error("WithCalibration(\"\") did not fail")
	}
	path := filepath.Join(t.TempDir(), "calib.json")
	if _, err := NewSession(cfg, WithCalibration(path), WithCalibrationStore(NewCalibrationStore())); err == nil {
		t.Error("double calibration configuration did not fail")
	}
	if _, err := NewSession(cfg, WithCalibrationStore(nil)); err == nil {
		t.Error("WithCalibrationStore(nil) did not fail")
	}
}

// TestExplainCostsShowsLearnedBandwidths: once a store covers the session's
// cluster shape, the -explain breakdown is priced with — and labelled by —
// the learned values, matching what the compile actually used.
func TestExplainCostsShowsLearnedBandwidths(t *testing.T) {
	cfg := LocalClusterConfig()
	store := NewCalibrationStore()
	seedNetBound(store, cfg, cfg.NetBandwidth/100)
	sess, err := NewSession(cfg, WithCalibrationStore(store))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	bindTestInputs(sess)
	desc, err := sess.ExplainCosts("O = X * log(U %*% t(V) + 1e-3)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(desc, "learned") {
		t.Errorf("ExplainCosts not labelled with learned bandwidths:\n%s", desc)
	}
}

// TestCalibrationGenerationInvalidatesPlanCache: compiled plans are stamped
// with the store generation, so rotating the store (topology change) misses
// the shared plan cache, while a stable generation keeps hitting.
func TestCalibrationGenerationInvalidatesPlanCache(t *testing.T) {
	pc := NewPlanCache(0)
	store := NewCalibrationStore()
	const script = "O = X * log(U %*% t(V) + 1e-3)"

	run := func() bool {
		cfg := LocalClusterConfig()
		cfg.BlockSize = 16
		sess, err := NewSession(cfg, WithPlanCache(pc), WithCalibrationStore(store))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		bindTestInputs(sess)
		if _, err := sess.Query(script); err != nil {
			t.Fatal(err)
		}
		return sess.LastPlanCacheHit()
	}

	if hit := run(); hit {
		t.Fatal("first submission hit an empty cache")
	}
	// Early runs may re-key as online learning publishes its first values;
	// the generation must stabilise and submissions start hitting.
	stable := false
	for i := 0; i < 5 && !stable; i++ {
		stable = run()
	}
	if !stable {
		t.Fatal("generation never stabilised: five successive submissions all missed")
	}
	gen := store.Generation()
	store.Rotate()
	if store.Generation() <= gen {
		t.Fatal("Rotate did not advance the generation")
	}
	if hit := run(); hit {
		t.Fatal("submission after Rotate hit a plan costed under the old generation")
	}
	// Re-learning after the rotation may re-key a few more times, then the
	// cache must serve hits again.
	stable = false
	for i := 0; i < 5 && !stable; i++ {
		stable = run()
	}
	if !stable {
		t.Fatal("cache never recovered after rotation")
	}
}

// TestSessionReplanBitIdentity: the same query sequence with re-planning
// forced at every boundary must return bit-identical results to a plain
// session, while the replanner actually swaps a plan once inputs are
// cache-resident.
func TestSessionReplanBitIdentity(t *testing.T) {
	cfg := LocalClusterConfig()
	cfg.BlockSize = 16
	// Two k-axis blocks and a parallelism floor above the minimum give the
	// re-pick real (P,Q) freedom (see the replanner suite in internal/core).
	cfg.Nodes, cfg.TasksPerNode = 2, 3
	const script = "O = X %*% W"
	bind := func(s *Session) {
		s.RandomDense("X", 80, 96, 0.5, 1.5, 1)
		s.RandomDense("W", 96, 32, 0.2, 0.8, 2)
	}

	query := func(s *Session) []float64 {
		out, err := s.Query(script)
		if err != nil {
			t.Fatal(err)
		}
		return out["O"].Dense()
	}

	// Both sessions run the same sequence: query, rebind W with fresh data,
	// query again. The rebind keeps only X cache-resident across the
	// boundary — with every input resident, all candidate (P,Q) tie and the
	// re-pick has nothing to move.
	rebindW := func(s *Session) { s.RandomDense("W", 96, 32, 0.2, 0.8, 3) }

	plain, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	bind(plain)
	p1 := query(plain)
	rebindW(plain)
	p2 := query(plain)

	store := NewCalibrationStore()
	seedNetBound(store, cfg, cfg.NetBandwidth/100)
	adaptive, err := NewSession(cfg, WithReplan(true), WithBlockCache(1<<30), WithCalibrationStore(store))
	if err != nil {
		t.Fatal(err)
	}
	defer adaptive.Close()
	adaptive.replanner.Threshold = -1 // force the re-cost at every boundary
	bind(adaptive)
	a1 := query(adaptive)
	rebindW(adaptive)
	a2 := query(adaptive)

	for i := range p1 {
		if a1[i] != p1[i] || a2[i] != p2[i] {
			t.Fatalf("replanned result differs from plain at index %d", i)
		}
	}
	checks, replans, _ := adaptive.ReplanStats()
	if checks != 2 {
		t.Errorf("checks = %d, want 2 (one per query)", checks)
	}
	if replans == 0 {
		t.Error("replanner never swapped a plan; residency + learned bandwidths should move (P,Q)")
	}
	if c, r, _ := plain.ReplanStats(); c != 0 || r != 0 {
		t.Errorf("plain session reported replan activity: %d checks, %d replans", c, r)
	}
}
