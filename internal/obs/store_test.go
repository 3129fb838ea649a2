package obs

import (
	"math"
	"path/filepath"
	"testing"
)

var calibTestModel = ClusterModel{Nodes: 2, NetBandwidth: 1e9, CompBandwidth: 50e9}

// netStage returns a stage record the model classifies as net-bound, whose
// back-solved bandwidth is exactly bw bytes/s per node.
func netStage(bw float64, wall float64, nodes int) FlightRecord {
	return FlightRecord{
		Op: "CFO mul#1", PredNetBytes: 1 << 30, PredComFlops: 1,
		MeasConsolidationBytes: int64(bw * float64(nodes) * wall),
		MeasWallSeconds:        wall,
	}
}

// compStage returns a record the model classifies as comp-bound with
// back-solved flop rate bw.
func compStage(bw float64, wall float64, nodes int) FlightRecord {
	return FlightRecord{
		Op: "CFO mul#2", PredNetBytes: 1, PredComFlops: 1 << 40,
		MeasFlops:       int64(bw * float64(nodes) * wall),
		MeasWallSeconds: wall,
	}
}

func TestCalibStoreObserveClassifiesStages(t *testing.T) {
	s := NewCalibStore()
	key := CalibKey{Workers: 2, BlockSize: 64}

	if !s.Observe(key, calibTestModel, netStage(8e6, 0.25, 2)) {
		t.Fatal("net-bound stage not folded in")
	}
	if !s.Observe(key, calibTestModel, compStage(3e9, 0.5, 2)) {
		t.Fatal("comp-bound stage not folded in")
	}

	l, ok := s.Lookup(key)
	if !ok || l.Key != key {
		t.Fatalf("Lookup(%v) = %v, %v, want exact hit", key, l, ok)
	}
	if math.Abs(l.NetBW-8e6)/8e6 > 1e-9 {
		t.Errorf("learned NetBW = %g, want 8e6", l.NetBW)
	}
	if math.Abs(l.CompBW-3e9)/3e9 > 1e-9 {
		t.Errorf("learned CompBW = %g, want 3e9", l.CompBW)
	}

	// Stages with no wall time or no prediction contribute nothing.
	if s.Observe(key, calibTestModel, FlightRecord{Op: "x", PredComFlops: 1 << 40}) {
		t.Error("zero-wall stage was folded in")
	}
	if s.Observe(key, calibTestModel, FlightRecord{MeasWallSeconds: 1}) {
		t.Error("prediction-free stage was folded in")
	}
}

func TestCalibStoreConvergence(t *testing.T) {
	// Start from a badly wrong first observation and stream stages measured
	// at the true bandwidth: the EWMA must converge well within 30 stages.
	s := NewCalibStore()
	key := CalibKey{Workers: 2, BlockSize: 64}
	const trueBW = 12e6

	s.Observe(key, calibTestModel, netStage(trueBW*40, 0.1, 2))
	for i := 0; i < 30; i++ {
		s.Observe(key, calibTestModel, netStage(trueBW, 0.1, 2))
	}
	l, _ := s.Lookup(key)
	if math.Abs(l.NetBW-trueBW)/trueBW > 0.01 {
		t.Errorf("after 30 stages NetBW = %g, want within 1%% of %g", l.NetBW, trueBW)
	}
}

func TestCalibStoreUpdateFromFlight(t *testing.T) {
	s := NewCalibStore()
	key := CalibKey{Workers: 2, BlockSize: 64}
	recs := []FlightRecord{
		// Net-bound: 4e6 B/s per node over 2 nodes for 0.5s.
		{Op: "CFO mul#1", PredNetBytes: 1 << 30, PredComFlops: 1,
			MeasConsolidationBytes: 4e6, MeasWallSeconds: 0.5},
		// Bookkeeping stage with no prediction: skipped.
		{Op: "bind", MeasWallSeconds: 0.1},
	}
	if folded := s.UpdateFromFlight(key, calibTestModel, recs); folded != 1 {
		t.Fatalf("UpdateFromFlight folded %d records, want 1", folded)
	}
	l, ok := s.Lookup(key)
	if !ok || math.Abs(l.NetBW-4e6)/4e6 > 1e-9 {
		t.Errorf("Lookup = %v, %v; want NetBW 4e6", l, ok)
	}
}

func TestCalibStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "calib.json")
	s, err := OpenCalibStore(path)
	if err != nil {
		t.Fatal(err)
	}
	key := CalibKey{Workers: 2, BlockSize: 64, KernelThreads: 4}
	s.Observe(key, calibTestModel, netStage(8e6, 0.25, 2))
	s.Observe(key, calibTestModel, compStage(3e9, 0.5, 2))
	gen := s.Generation()
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenCalibStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Generation() != gen {
		t.Errorf("reloaded generation = %d, want %d", re.Generation(), gen)
	}
	if re.Len() != 1 {
		t.Fatalf("reloaded Len = %d, want 1", re.Len())
	}
	want := s.Entries()[0]
	got := re.Entries()[0]
	if got != want {
		t.Errorf("reloaded entry = %+v, want %+v", got, want)
	}

	// A missing file opens an empty store rather than failing.
	empty, err := OpenCalibStore(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil || empty.Len() != 0 {
		t.Errorf("OpenCalibStore(absent) = len %d, err %v; want empty, nil", empty.Len(), err)
	}
}

func TestCalibStoreLookupFallbackOrder(t *testing.T) {
	s := NewCalibStore()
	add := func(key CalibKey, bw float64) {
		s.Observe(key, calibTestModel, netStage(bw, 0.25, 2))
	}
	add(CalibKey{Workers: 2, BlockSize: 64, KernelThreads: 4}, 1e6)
	add(CalibKey{Workers: 2, BlockSize: 64, KernelThreads: 1}, 2e6)
	add(CalibKey{Workers: 2, BlockSize: 32, KernelThreads: 8}, 3e6)
	add(CalibKey{Workers: 4, BlockSize: 64, KernelThreads: 4}, 4e6)

	cases := []struct {
		name   string
		want   CalibKey
		wantBW float64
		exact  bool
		miss   bool
		key    CalibKey
	}{
		{name: "exact", key: CalibKey{Workers: 2, BlockSize: 64, KernelThreads: 4},
			wantBW: 1e6, exact: true},
		{name: "same workers+block size, closest kernel threads",
			key: CalibKey{Workers: 2, BlockSize: 64, KernelThreads: 2}, wantBW: 2e6},
		{name: "smaller kernel-thread distance wins",
			// kt=4 sits at distance 1 from the request, kt=1 at distance 2.
			key: CalibKey{Workers: 2, BlockSize: 64, KernelThreads: 3}, wantBW: 1e6},
		{name: "same workers, any block size",
			key: CalibKey{Workers: 2, BlockSize: 128, KernelThreads: 8}, wantBW: 3e6},
		{name: "different worker count never substitutes",
			key: CalibKey{Workers: 8, BlockSize: 64, KernelThreads: 4}, miss: true},
	}
	for _, tc := range cases {
		l, ok := s.Lookup(tc.key)
		if tc.miss {
			if ok {
				t.Errorf("%s: Lookup(%v) hit %v, want miss", tc.name, tc.key, l)
			}
			continue
		}
		if !ok || l.NetBW != tc.wantBW || (l.Key == tc.key) != tc.exact {
			t.Errorf("%s: Lookup(%v) = %+v, %v; want NetBW %g exact=%v",
				tc.name, tc.key, l, ok, tc.wantBW, tc.exact)
		}
	}
}

func TestCalibStoreGenerationHysteresis(t *testing.T) {
	s := NewCalibStore()
	key := CalibKey{Workers: 2, BlockSize: 64}

	s.Observe(key, calibTestModel, netStage(10e6, 0.25, 2))
	gen := s.Generation()
	if gen == 0 {
		t.Fatal("first sample did not publish a generation")
	}

	// Identical samples refine silently: no churn for plan caches.
	for i := 0; i < 20; i++ {
		s.Observe(key, calibTestModel, netStage(10e6, 0.25, 2))
	}
	if g := s.Generation(); g != gen {
		t.Errorf("stable samples advanced generation %d -> %d", gen, g)
	}

	// A 10x shift must eventually re-key: the EWMA crosses the drift band.
	for i := 0; i < 20; i++ {
		s.Observe(key, calibTestModel, netStage(100e6, 0.25, 2))
	}
	if g := s.Generation(); g <= gen {
		t.Errorf("10x bandwidth shift left generation at %d", g)
	}
}

func TestCalibStoreRotate(t *testing.T) {
	s := NewCalibStore()
	key := CalibKey{Workers: 2, BlockSize: 64}
	s.Observe(key, calibTestModel, netStage(10e6, 0.25, 2))
	gen := s.Generation()

	s.Rotate()
	if s.Len() != 0 {
		t.Errorf("Rotate left %d entries", s.Len())
	}
	if _, ok := s.Lookup(key); ok {
		t.Error("Lookup hit after Rotate")
	}
	if g := s.Generation(); g <= gen {
		t.Errorf("Rotate did not advance generation: %d -> %d", gen, g)
	}
}

func TestCalibStoreNilSafe(t *testing.T) {
	var s *CalibStore
	if s.Observe(CalibKey{}, calibTestModel, FlightRecord{MeasWallSeconds: 1}) {
		t.Error("nil store folded a sample")
	}
	if _, ok := s.Lookup(CalibKey{}); ok {
		t.Error("nil store returned a hit")
	}
	if s.Generation() != 0 || s.Len() != 0 || s.Entries() != nil {
		t.Error("nil store reported state")
	}
	if err := s.Save(); err != nil {
		t.Errorf("nil Save = %v", err)
	}
	s.Rotate()

	var l *Learner
	if l.Observe(FlightRecord{MeasWallSeconds: 1}) {
		t.Error("nil learner folded a sample")
	}
}
