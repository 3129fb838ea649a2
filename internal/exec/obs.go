package exec

import (
	"fmt"
	"sync"

	"fuseme/internal/cluster"
	"fuseme/internal/obs"
	"fuseme/internal/parallel"
	"fuseme/internal/rt"
)

// runObservedStage dispatches st through the runtime with observability
// wrapped around it: the journal's stage_start, carrying the stage's phase,
// grid and cuboid partitioning, per-task instrumentation when tracing or a
// registry is on, and — the one place a FlightRecord is built from live
// execution — the operator's prediction pred with, as its Meas, the stats the
// runtime reports for this stage (rt.Stage.Report: this stage's own, whatever
// runs beside it), handed to Obs.StageDone. Per task, either runtime hands
// each of the stage's own attempts to rt.Stage.TaskDone, which passes it to
// Obs.TaskDone and keeps it for the skew handed to Obs.StageDone; tracing
// sets rt.Stage.Trace, so the attempts record their sub-spans wherever they
// run.
//
// The disabled path — a nil Obs, or one with every component off — is one
// check and a plain rt.RunStage: the fast path BenchmarkTraceOverhead guards.
func runObservedStage(rtm rt.Runtime, o *obs.Obs, pred obs.FlightRecord, st *rt.Stage) error {
	if o == nil || *o == (obs.Obs{}) {
		return rt.RunStage(rtm, st)
	}

	// The samples live inside the branch, so a stage without per-task
	// instrumentation (calibration alone, the default) allocates none.
	skew := func() obs.StageSkew { return obs.StageSkew{} }
	if o.Trace || o.Metrics != nil {
		var mu sync.Mutex
		var samples []obs.TaskSample // this stage's task attempts, under mu
		st.TaskDone = func(t obs.TaskSample) {
			o.TaskDone(st.Name, t)
			mu.Lock()
			samples = append(samples, t)
			mu.Unlock()
		}
		skew = func() obs.StageSkew {
			mu.Lock()
			defer mu.Unlock()
			return obs.StageSkewOf(st.Name, samples)
		}
	}
	st.Trace = o.Trace
	if o.QLog != nil {
		sp := st.Spec
		start := obs.Event{Type: obs.EvStageStart, Stage: st.Name, Op: pred.Op, Tasks: st.NumTasks,
			Phase: string(sp.Phase), Grid: fmt.Sprintf("%dx%dx%d", sp.GI, sp.GJ, sp.GK)}
		// Cuboid stages carry their partitioning; grid stages have none.
		if p, q := len(sp.IRanges), len(sp.JRanges); p > 0 && q > 0 {
			start.PQR = []int{p, q, max(len(sp.KRanges), 1)}
		}
		o.QLog.Emit(start)
	}
	// The runtime folds every task's metering (and, for the TCP backend, the
	// coordinator's wire accounting) into this stage's own stats and reports
	// them before returning; a stage that failed before folding reports
	// none, and its record measures zero.
	rec := pred
	rec.Stage, rec.Tasks = st.Name, st.NumTasks
	st.Report = func(s cluster.Stats) { rec.Meas = s }
	err := rt.RunStage(rtm, st)
	o.StageDone(rec, skew(), err)

	// The kernel pool is process-local (the sim cluster's; TCP workers report
	// their own), so its counters are no part of the runtime's stage stats.
	if pooled, ok := rtm.(interface{ KernelPool() *parallel.Pool }); ok {
		o.Metrics.PublishKernelPool(pooled.KernelPool())
	}
	return err
}
