package obs

import (
	"sort"
	"time"
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
// critical path. Skew-aware partitioning of sparse inputs and autoscaling
// are the consumers this signal is kept for.
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
	type load struct {
		tasks int
		busy  time.Duration // summed exactly, so the fold does not depend on the samples' order
	}
	byWkr := map[int]*load{}
	for _, t := range samples {
		if t.Worker < 0 {
			continue
		}
		d := t.End.Sub(t.Start)
		secs = append(secs, d.Seconds())
		l := byWkr[t.Worker]
		if l == nil {
			l = &load{}
			byWkr[t.Worker] = l
		}
		l.tasks++
		l.busy += d
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
	for w, l := range byWkr {
		sk.Workers = append(sk.Workers, WorkerLoad{Worker: w, Tasks: l.tasks, Seconds: l.busy.Seconds()})
	}
	sort.Slice(sk.Workers, func(i, j int) bool { return sk.Workers[i].Worker < sk.Workers[j].Worker })
	return sk
}

// observeSkew publishes the skew of stage_end e: its imbalance on
// MStageSkew, its per-worker loads folded into each worker's EWMA mean task
// duration kept beside the gauges, and the refreshed slowdown scores on the
// WorkerSlowdownGauge series. The fold depends on order, so an unstamped e
// gets its time under the lock that orders the folds: Replay, folding in
// time order, folds the skews in the live order.
func (r *Registry) observeSkew(e *Event) {
	r.skewMu.Lock()
	defer r.skewMu.Unlock()
	if e.UnixNano == 0 {
		e.UnixNano = time.Now().UnixNano()
	}
	r.Gauge(MStageSkew).Set(e.Skew.Imbalance)
	if r.ewma == nil {
		r.ewma = map[int]float64{}
	}
	for _, w := range e.Skew.Workers {
		mean := w.Seconds / float64(w.Tasks)
		if prev, ok := r.ewma[w.Worker]; ok {
			r.ewma[w.Worker] = prev + slowdownAlpha*(mean-prev)
		} else {
			r.ewma[w.Worker] = mean
		}
	}
	for worker, score := range r.slowdownsLocked() {
		r.Gauge(WorkerSlowdownGauge(worker)).Set(score)
	}
}

// slowdownsLocked returns each worker's slowdown score: its EWMA mean task
// duration divided by the fleet's median EWMA. Scores near 1.0 are healthy;
// a worker consistently above (say ≥1.5) is a straggler. Nil until a stage
// with task samples has been folded.
func (r *Registry) slowdownsLocked() map[int]float64 {
	if len(r.ewma) == 0 {
		return nil
	}
	means := make([]float64, 0, len(r.ewma))
	for _, m := range r.ewma {
		means = append(means, m)
	}
	fleet := median(means)
	out := make(map[int]float64, len(r.ewma))
	for id, m := range r.ewma {
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
