package obs

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// samplesOf returns one task sample per duration, the i-th run by worker
// workers[i % len(workers)].
func samplesOf(workers []int, secs ...float64) []TaskSample {
	t0 := time.Unix(0, 0)
	out := make([]TaskSample, len(secs))
	for i, s := range secs {
		out[i] = TaskSample{ID: i, Worker: workers[i%len(workers)], Start: t0,
			End: t0.Add(time.Duration(s * float64(time.Second)))}
	}
	return out
}

func TestSkewDetectorBalancedStage(t *testing.T) {
	sk := StageSkewOf("s0", samplesOf([]int{0, 1}, 0.1, 0.1, 0.1, 0.1))
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
	// Three quick tasks and one 4x straggler: median (even count) averages
	// the middle two samples, so max/median = 0.4 / 0.1 = 4.
	sk := StageSkewOf("s1", samplesOf([]int{0}, 0.1, 0.1, 0.1, 0.4))
	if math.Abs(sk.Imbalance-4) > 1e-9 {
		t.Fatalf("imbalance = %g, want 4", sk.Imbalance)
	}
	if sk.MaxSeconds != 0.4 || sk.MedianSeconds != 0.1 {
		t.Fatalf("max/median = %g/%g", sk.MaxSeconds, sk.MedianSeconds)
	}
	// A stage without samples, or with none naming a worker, is empty.
	if sk := StageSkewOf("s2", nil); sk.Tasks != 0 {
		t.Fatalf("empty stage folded to %+v", sk)
	}
	if sk := StageSkewOf("s3", samplesOf([]int{-1}, 0.1, 0.4)); sk.Tasks != 0 {
		t.Fatalf("unattributed samples folded to %+v", sk)
	}
}

// TestSkewOrderIndependent: a stage's skew is the same whatever order its
// samples arrived in — tasks that end at once on two lanes hand them over
// in either order. Summed as floats, 0.1+0.2+0.3 s and 0.3+0.2+0.1 s differ
// in the last bit.
func TestSkewOrderIndependent(t *testing.T) {
	forward := samplesOf([]int{0}, 0.1, 0.2, 0.3)
	backward := []TaskSample{forward[2], forward[1], forward[0]}
	if a, b := StageSkewOf("s", forward), StageSkewOf("s", backward); !reflect.DeepEqual(a, b) {
		t.Fatalf("skew of the same samples: %+v in one order, %+v in the other", a, b)
	}
}

func TestSkewDetectorZeroDurations(t *testing.T) {
	sk := StageSkewOf("s0", samplesOf([]int{0}, 0, 0.2))
	if sk.MedianSeconds != 0.1 {
		t.Fatalf("median = %g, want 0.1", sk.MedianSeconds)
	}
	if sk := StageSkewOf("s", samplesOf([]int{0}, 0)); sk.Imbalance != 0 {
		t.Fatalf("all-zero stage imbalance = %g, want 0", sk.Imbalance)
	}
}

func TestSlowdownsFlagStraggler(t *testing.T) {
	r := NewRegistry()
	if got := r.slowdownsLocked(); got != nil {
		t.Fatalf("Slowdowns before any stage = %v, want nil", got)
	}
	// Three healthy workers at ~0.1s mean, one consistently 3x slower.
	for stage := 0; stage < 4; stage++ {
		r.observeStage(StageSkewOf("s", samplesOf([]int{0, 1, 2, 3}, 0.1, 0.1, 0.1, 0.3)))
	}
	scores := r.slowdownsLocked()
	for w := 0; w < 3; w++ {
		if math.Abs(scores[w]-1) > 1e-9 {
			t.Errorf("healthy worker %d score = %g, want 1", w, scores[w])
		}
	}
	if scores[3] < 1.5 {
		t.Errorf("straggler score = %g, want >= 1.5", scores[3])
	}
	for w, score := range scores {
		if g := r.Gauge(WorkerSlowdownGauge(w)).Value(); g != score {
			t.Errorf("worker %d gauge = %g, want its score %g", w, g, score)
		}
	}
}

func TestSlowdownEWMAConverges(t *testing.T) {
	r := NewRegistry()
	// A worker that was fast turns slow: EWMA should cross 1.5x the fleet
	// median within a few stages (alpha = 0.3).
	for i := 0; i < 3; i++ {
		r.observeStage(StageSkewOf("warm", samplesOf([]int{0, 1}, 0.1, 0.1)))
	}
	stagesToFlag := 0
	for i := 0; i < 20; i++ {
		r.observeStage(StageSkewOf("slow", samplesOf([]int{0, 1}, 0.1, 1.0)))
		stagesToFlag++
		if r.slowdownsLocked()[1] >= 1.5 {
			break
		}
	}
	if got := r.slowdownsLocked()[1]; got < 1.5 {
		t.Fatalf("slow worker never flagged: score %g after %d stages", got, stagesToFlag)
	}
	if stagesToFlag > 5 {
		t.Fatalf("EWMA took %d stages to flag a 10x slowdown, want <= 5", stagesToFlag)
	}
}

func TestSkewDetectorNilSafety(t *testing.T) {
	var r *Registry
	r.observeStage(StageSkewOf("s", samplesOf([]int{0}, 1)))
	if len(r.Snapshot().Gauges) != 0 {
		t.Fatal("a nil registry should publish no gauges")
	}
}
