package obs

import (
	"sort"
	"sync"
)

// WorkerLoad is one worker's contribution to a stage: how many tasks it ran
// and the total seconds it spent on them.
type WorkerLoad struct {
	Worker  int     `json:"worker"`
	Tasks   int     `json:"tasks"`
	Seconds float64 `json:"seconds"`
}

// StageSkew summarises task-duration imbalance within one stage. Imbalance
// is max/median task duration — 1.0 means perfectly balanced, large values
// mean one task (a straggler or a skewed partition) dominated the stage's
// critical path. ROADMAP items 3 (sparse skew) and 5 (autoscaling) consume
// this signal.
type StageSkew struct {
	Stage         string       `json:"stage,omitempty"`
	Tasks         int          `json:"tasks"`
	MaxSeconds    float64      `json:"max_seconds"`
	MedianSeconds float64      `json:"median_seconds"`
	Imbalance     float64      `json:"imbalance"`
	Workers       []WorkerLoad `json:"workers,omitempty"`
}

// slowdownAlpha is the EWMA smoothing factor for per-worker mean task
// duration: heavy enough smoothing to survive one noisy stage, light enough
// that a worker turning slow is flagged within a few stages.
const slowdownAlpha = 0.3

// StageSkewOf folds one stage's task samples into its StageSkew: the
// duration imbalance of the samples that name a worker, and each worker's
// task count and seconds. A pure function of its arguments; samples without
// a worker (Worker < 0) are left out, and the zero StageSkew (Tasks == 0)
// is returned when none names one.
func StageSkewOf(stage string, samples []TaskSample) StageSkew {
	sk := StageSkew{Stage: stage}
	var secs []float64
	byWkr := map[int]*WorkerLoad{}
	for _, t := range samples {
		if t.Worker < 0 {
			continue
		}
		s := t.End.Sub(t.Start).Seconds()
		secs = append(secs, s)
		w := byWkr[t.Worker]
		if w == nil {
			w = &WorkerLoad{Worker: t.Worker}
			byWkr[t.Worker] = w
		}
		w.Tasks++
		w.Seconds += s
	}
	if len(secs) == 0 {
		return sk
	}
	sk.Tasks = len(secs)
	sk.MedianSeconds = median(secs)
	sk.MaxSeconds = secs[len(secs)-1]
	if sk.MedianSeconds > 0 {
		sk.Imbalance = sk.MaxSeconds / sk.MedianSeconds
	} else if sk.MaxSeconds > 0 {
		sk.Imbalance = 1
	}
	for _, w := range byWkr {
		sk.Workers = append(sk.Workers, *w)
	}
	sort.Slice(sk.Workers, func(i, j int) bool { return sk.Workers[i].Worker < sk.Workers[j].Worker })
	return sk
}

// SkewDetector keeps each worker's EWMA mean task duration across stages,
// folded from every finished stage's StageSkew, and scores each worker
// against the fleet median (Slowdowns): a healthy worker sits near 1.0, a
// straggler drifts above. Safe for concurrent use; a nil detector absorbs
// every call.
type SkewDetector struct {
	mu   sync.Mutex
	ewma map[int]float64 // per-worker EWMA mean task seconds
}

// NewSkewDetector returns an empty detector.
func NewSkewDetector() *SkewDetector {
	return &SkewDetector{ewma: map[int]float64{}}
}

// Observe folds a finished stage's per-worker loads into each worker's EWMA.
func (d *SkewDetector) Observe(sk StageSkew) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, w := range sk.Workers {
		mean := w.Seconds / float64(w.Tasks)
		if prev, ok := d.ewma[w.Worker]; ok {
			d.ewma[w.Worker] = prev + slowdownAlpha*(mean-prev)
		} else {
			d.ewma[w.Worker] = mean
		}
	}
}

// Reset forgets every worker's history, as if no stage had been observed.
func (d *SkewDetector) Reset() {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.ewma = map[int]float64{}
	d.mu.Unlock()
}

// Slowdowns returns each worker's slowdown score: its EWMA mean task
// duration divided by the fleet's median EWMA. Scores near 1.0 are healthy;
// a worker consistently above (say ≥1.5) is a straggler. Empty until a
// per-task stage has finished.
func (d *SkewDetector) Slowdowns() map[int]float64 {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.ewma) == 0 {
		return nil
	}
	means := make([]float64, 0, len(d.ewma))
	for _, m := range d.ewma {
		means = append(means, m)
	}
	fleet := median(means)
	out := make(map[int]float64, len(d.ewma))
	for id, m := range d.ewma {
		if fleet > 0 {
			out[id] = m / fleet
		} else {
			out[id] = 1
		}
	}
	return out
}

// median sorts v (non-empty) in place and returns its median: the middle
// element, or the mean of the two middle ones.
func median(v []float64) float64 {
	sort.Float64s(v)
	mid := len(v) / 2
	if len(v)%2 == 0 {
		return (v[mid-1] + v[mid]) / 2
	}
	return v[mid]
}
