package obs

import (
	"math"
	"testing"
)

func TestSkewDetectorBalancedStage(t *testing.T) {
	d := NewSkewDetector()
	for i := 0; i < 4; i++ {
		d.ObserveTask("s0", i%2, 0.1)
	}
	sk := d.FinishStage("s0")
	if sk.Stage != "s0" || sk.Tasks != 4 {
		t.Fatalf("skew = %+v", sk)
	}
	if sk.Imbalance != 1 {
		t.Fatalf("balanced stage imbalance = %g, want 1", sk.Imbalance)
	}
	if len(sk.Workers) != 2 || sk.Workers[0].Worker != 0 || sk.Workers[0].Tasks != 2 {
		t.Fatalf("workers = %+v", sk.Workers)
	}
}

func TestSkewDetectorImbalance(t *testing.T) {
	d := NewSkewDetector()
	// Three quick tasks and one 4x straggler: median (even count) averages
	// the middle two samples, so max/median = 0.4 / 0.1 = 4.
	for _, s := range []float64{0.1, 0.1, 0.1, 0.4} {
		d.ObserveTask("s1", 0, s)
	}
	sk := d.FinishStage("s1")
	if math.Abs(sk.Imbalance-4) > 1e-9 {
		t.Fatalf("imbalance = %g, want 4", sk.Imbalance)
	}
	if sk.MaxSeconds != 0.4 || sk.MedianSeconds != 0.1 {
		t.Fatalf("max/median = %g/%g", sk.MaxSeconds, sk.MedianSeconds)
	}
	// The stage reset: a second FinishStage with no samples is empty.
	if sk := d.FinishStage("s2"); sk.Tasks != 0 {
		t.Fatalf("detector did not reset: %+v", sk)
	}
}

func TestSkewDetectorZeroDurations(t *testing.T) {
	d := NewSkewDetector()
	d.ObserveTask("s0", 0, 0)
	d.ObserveTask("s0", 0, 0.2)
	sk := d.FinishStage("s0")
	if sk.MedianSeconds != 0.1 {
		t.Fatalf("median = %g, want 0.1", sk.MedianSeconds)
	}
	d2 := NewSkewDetector()
	d2.ObserveTask("s", 0, 0)
	if sk := d2.FinishStage("s"); sk.Imbalance != 0 {
		t.Fatalf("all-zero stage imbalance = %g, want 0", sk.Imbalance)
	}
}

// TestSkewDetectorKeepsStagesApart: two stages running at once each fold
// only their own samples, whichever finishes first.
func TestSkewDetectorKeepsStagesApart(t *testing.T) {
	d := NewSkewDetector()
	d.ObserveTask("a", 0, 0.1)
	d.ObserveTask("b", 1, 0.4)
	d.ObserveTask("a", 0, 0.1)
	if sk := d.FinishStage("b"); sk.Tasks != 1 || sk.MaxSeconds != 0.4 {
		t.Fatalf("stage b = %+v, want its one sample", sk)
	}
	if sk := d.FinishStage("a"); sk.Tasks != 2 || sk.Imbalance != 1 {
		t.Fatalf("stage a = %+v, want its two equal samples", sk)
	}
}

func TestSlowdownsFlagStraggler(t *testing.T) {
	d := NewSkewDetector()
	if got := d.Slowdowns(); got != nil {
		t.Fatalf("Slowdowns before any stage = %v, want nil", got)
	}
	// Three healthy workers at ~0.1s mean, one consistently 3x slower.
	for stage := 0; stage < 4; stage++ {
		for w := 0; w < 3; w++ {
			d.ObserveTask("s", w, 0.1)
		}
		d.ObserveTask("s", 3, 0.3)
		d.FinishStage("s")
	}
	scores := d.Slowdowns()
	for w := 0; w < 3; w++ {
		if math.Abs(scores[w]-1) > 1e-9 {
			t.Errorf("healthy worker %d score = %g, want 1", w, scores[w])
		}
	}
	if scores[3] < 1.5 {
		t.Errorf("straggler score = %g, want >= 1.5", scores[3])
	}
}

func TestSlowdownEWMAConverges(t *testing.T) {
	d := NewSkewDetector()
	// A worker that was fast turns slow: EWMA should cross 1.5x the fleet
	// median within a few stages (alpha = 0.3).
	for i := 0; i < 3; i++ {
		d.ObserveTask("warm", 0, 0.1)
		d.ObserveTask("warm", 1, 0.1)
		d.FinishStage("warm")
	}
	stagesToFlag := 0
	for i := 0; i < 20; i++ {
		d.ObserveTask("slow", 0, 0.1)
		d.ObserveTask("slow", 1, 1.0)
		d.FinishStage("slow")
		stagesToFlag++
		if d.Slowdowns()[1] >= 1.5 {
			break
		}
	}
	if got := d.Slowdowns()[1]; got < 1.5 {
		t.Fatalf("slow worker never flagged: score %g after %d stages", got, stagesToFlag)
	}
	if stagesToFlag > 5 {
		t.Fatalf("EWMA took %d stages to flag a 10x slowdown, want <= 5", stagesToFlag)
	}
}

func TestSkewDetectorNilSafety(t *testing.T) {
	var d *SkewDetector
	d.ObserveTask("s", 0, 1)
	if sk := d.FinishStage("s"); sk.Tasks != 0 {
		t.Fatal("nil detector should return the zero StageSkew")
	}
	if d.Slowdowns() != nil {
		t.Fatal("nil detector should return nil slowdowns")
	}
}
