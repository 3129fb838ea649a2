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

// SkewDetector accumulates per-task durations per running stage and, at
// stage end, computes the stage's duration imbalance plus per-worker
// slowdown scores (each worker's EWMA mean task duration relative to the
// fleet median EWMA — a healthy worker sits near 1.0, a straggler drifts
// above). Stages that run at the same time keep their samples apart, keyed
// by stage name. Safe for concurrent use by task goroutines; a nil detector
// absorbs every call, keeping the executor's hot path a pointer check.
type SkewDetector struct {
	mu     sync.Mutex
	stages map[string]*stageSamples // running stages' samples, by name
	ewma   map[int]float64          // per-worker EWMA mean task seconds
}

// stageSamples is what one running stage's tasks reported.
type stageSamples struct {
	samples []float64           // task durations
	byWkr   map[int]*WorkerLoad // per-worker tallies
}

// NewSkewDetector returns an empty detector.
func NewSkewDetector() *SkewDetector {
	return &SkewDetector{stages: map[string]*stageSamples{}, ewma: map[int]float64{}}
}

// ObserveTask records one completed task of stage: which worker ran it and
// how long it took. Called from task goroutines on both runtimes.
func (d *SkewDetector) ObserveTask(stage string, worker int, seconds float64) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.stages[stage]
	if st == nil {
		st = &stageSamples{byWkr: map[int]*WorkerLoad{}}
		d.stages[stage] = st
	}
	st.samples = append(st.samples, seconds)
	w := st.byWkr[worker]
	if w == nil {
		w = &WorkerLoad{Worker: worker}
		st.byWkr[worker] = w
	}
	w.Tasks++
	w.Seconds += seconds
}

// FinishStage folds the stage's samples into a StageSkew, updates each
// participating worker's EWMA, and forgets the stage. The zero StageSkew
// (Tasks == 0) is returned when nothing was observed — e.g. local stages
// that never went per-task.
func (d *SkewDetector) FinishStage(stage string) StageSkew {
	if d == nil {
		return StageSkew{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.stages[stage]
	delete(d.stages, stage)
	sk := StageSkew{Stage: stage}
	if st == nil {
		return sk
	}
	sk.Tasks = len(st.samples)
	sk.MedianSeconds = median(st.samples)
	sk.MaxSeconds = st.samples[len(st.samples)-1]
	if sk.MedianSeconds > 0 {
		sk.Imbalance = sk.MaxSeconds / sk.MedianSeconds
	} else if sk.MaxSeconds > 0 {
		sk.Imbalance = 1
	}
	workers := make([]int, 0, len(st.byWkr))
	for id := range st.byWkr {
		workers = append(workers, id)
	}
	sort.Ints(workers)
	for _, id := range workers {
		w := st.byWkr[id]
		sk.Workers = append(sk.Workers, *w)
		mean := w.Seconds / float64(w.Tasks)
		if prev, ok := d.ewma[id]; ok {
			d.ewma[id] = prev + slowdownAlpha*(mean-prev)
		} else {
			d.ewma[id] = mean
		}
	}
	return sk
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
