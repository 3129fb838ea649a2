package exec

import (
	"fmt"
	"time"

	"fuseme/internal/cluster"
	"fuseme/internal/obs"
	"fuseme/internal/parallel"
	"fuseme/internal/rt"
)

// runObservedStage dispatches st through the runtime with observability
// wrapped around it: a stage span carrying the cuboid attributes, the
// journal's stage_start, per-task instrumentation when it is on, and — the
// one place a FlightRecord is built from live execution — the operator's
// prediction pred joined to the runtime's own stats of this stage, handed to
// Obs.StageDone for every output derived from it.
//
// The disabled path is one nil check and a plain rt.RunStage — that is the
// fast path BenchmarkTraceOverhead guards.
func runObservedStage(rtm rt.Runtime, o *obs.Obs, pred obs.FlightRecord, st *rt.Stage) error {
	if !o.Enabled() {
		return rt.RunStage(rtm, st)
	}

	span := o.StartSpan(st.Name, "stage", 0)
	if span != nil {
		sp := st.Spec
		span.Arg("tasks", st.NumTasks).Arg("phase", string(sp.Phase))
		// Cuboid stages carry their partitioning; grid stages have none.
		if p, q := len(sp.IRanges), len(sp.JRanges); p > 0 && q > 0 {
			span.Arg("P", p).Arg("Q", q).Arg("R", max(len(sp.KRanges), 1))
		}
		span.Arg("grid", fmt.Sprintf("%dx%dx%d", sp.GI, sp.GJ, sp.GK))
	}
	if o.PerTask() {
		st.Fn = wrapTaskFn(o, st.Fn, time.Now(), rtm.Config().Nodes)
	}
	if o.QLog != nil {
		o.QLog.Emit(obs.Event{Type: obs.EvStageStart, Stage: st.Name, Op: pred.Op, Tasks: st.NumTasks})
	}
	// The kernel pool is process-local (the sim cluster's; TCP workers report
	// their own), so its counters are no part of the runtime's stage stats.
	pooled, hasPool := rtm.(interface{ KernelPool() *parallel.Pool })
	var poolBefore parallel.Stats
	if hasPool {
		poolBefore = pooled.KernelPool().Stats()
	}

	err := rt.RunStage(rtm, st)

	// The runtime folded every task's metering (and, for the TCP backend, the
	// coordinator's wire accounting) into this stage's own stats before
	// returning; a stage that failed before folding reports zeros. SimSeconds
	// is the stage clock: the Eq. 2 model under simulation, real wall under
	// TCP. Steals are counted by the stage driver on both; the phase-seconds
	// fields are zero under simulation.
	m := rtm.LastStageStats()
	rec := pred
	rec.Stage, rec.Tasks = st.Name, st.NumTasks
	rec.MeasWallSeconds = m.SimSeconds
	rec.MeasConsolidationBytes, rec.MeasAggregationBytes = m.ConsolidationBytes, m.AggregationBytes
	rec.MeasExtraWireBytes, rec.MeasFlops = m.ExtraWireBytes, m.Flops
	rec.MeasPeakTaskMemBytes = m.PeakTaskMemBytes
	rec.CacheHits, rec.CacheMisses, rec.CacheSavedBytes = m.CacheHits, m.CacheMisses, m.CacheSavedBytes
	rec.StealTasks, rec.MeasFetchSeconds, rec.MeasTaskSeconds = m.StealTasks, m.FetchSeconds, m.TaskSeconds
	o.StageDone(rec, err)

	o.Counter(obs.MCacheEvictions).Add(m.CacheEvictions)
	o.Counter(obs.MStealTasks).Add(m.StealTasks)
	if hasPool {
		pool := pooled.KernelPool()
		after := pool.Stats()
		o.Gauge(obs.MKernelThreads).Set(float64(pool.Threads()))
		o.Counter(obs.MKernelParallelCalls).Add(after.ParallelCalls - poolBefore.ParallelCalls)
		o.Counter(obs.MKernelSerialCalls).Add(after.SerialCalls - poolBefore.SerialCalls)
		o.Counter(obs.MKernelHelperRuns).Add(after.HelperRuns - poolBefore.HelperRuns)
	}
	if span != nil {
		span.Arg("consolidation_bytes", rec.MeasConsolidationBytes).
			Arg("aggregation_bytes", rec.MeasAggregationBytes).
			Arg("flops", rec.MeasFlops).
			Arg("stage_seconds", rec.MeasWallSeconds)
		if err != nil {
			span.Arg("error", err.Error())
		}
		span.End()
	}
	return err
}

// wrapTaskFn reports every run of the in-process task body to Obs.TaskDone;
// nodes is the simulated worker count, attributing task ID to its home node
// the same way the sim cluster places tasks. Only the sim backend executes
// Fn; the TCP coordinator reports its tasks from its dispatch lanes.
func wrapTaskFn(o *obs.Obs, inner func(*cluster.Task) error, stageStart time.Time, nodes int) func(*cluster.Task) error {
	nodes = max(nodes, 1)
	return func(task *cluster.Task) error {
		start := time.Now()
		var tt *cluster.TaskTrace
		if o.Tracing() {
			tt = &cluster.TaskTrace{}
			task.SetTrace(tt)
		}
		err := inner(task)
		m := task.Metrics()
		o.TaskDone(obs.TaskSample{ID: task.ID, Worker: task.ID % nodes, Cat: "task",
			StageStart: stageStart, Start: start, Err: err,
			ConsolidationBytes: m.ConsolidationBytes, AggregationBytes: m.AggregationBytes,
			Flops: m.Flops, PeakMemBytes: m.MemPeakBytes})
		if tt != nil {
			// Replay the task body's sub-spans onto the local process track,
			// same taxonomy the TCP workers ship back over the wire.
			for _, s := range tt.Spans() {
				o.Trace.AddSpanAt(s.Name, s.Cat, obs.PIDLocal, 1+task.ID%64, s.Start, s.End.Sub(s.Start), nil)
			}
			task.SetTrace(nil)
		}
		return err
	}
}
