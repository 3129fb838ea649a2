package exec

import (
	"fmt"
	"time"

	"fuseme/internal/cluster"
	"fuseme/internal/obs"
	"fuseme/internal/parallel"
	"fuseme/internal/rt"
	"fuseme/internal/rt/spec"
)

// runObservedStage dispatches st through the runtime with observability
// wrapped around it: a stage span carrying the cuboid attributes, per-task
// spans and latency/queue-wait metrics when per-task instrumentation is on,
// and a stats-diff calibration measurement joined to the operator key.
//
// The disabled path is one nil check and a plain rt.RunStage — that is the
// fast path BenchmarkTraceOverhead guards.
func runObservedStage(rtm rt.Runtime, o *obs.Obs, opKey string, st *rt.Stage) error {
	if !o.Enabled() {
		return rt.RunStage(rtm, st)
	}

	span := o.StartSpan(st.Name, "stage", 0)
	if span != nil {
		span.Arg("tasks", st.NumTasks)
		if sp := st.Spec; sp != nil {
			span.Arg("phase", string(sp.Phase))
			if p, q, r := specPQR(sp); p > 0 {
				span.Arg("P", p).Arg("Q", q).Arg("R", r)
			}
			span.Arg("grid", fmt.Sprintf("%dx%dx%d", sp.GI, sp.GJ, sp.GK))
		}
	}
	if o.PerTask() && st.Fn != nil {
		st.Fn = wrapTaskFn(o, st.Fn, time.Now(), rtm.Config().Nodes)
	}
	if o.QLog != nil {
		o.Emit(obs.Event{Type: obs.EvStageStart, Stage: st.Name, Op: opKey, Tasks: st.NumTasks})
	}

	// Stats-diff measurement: the runtime folds every task's metering (and,
	// for the TCP backend, the coordinator's wire accounting) into its
	// cumulative stats before RunStage returns, so the delta is exactly this
	// stage's contribution regardless of backend. SimSeconds is the stage
	// clock: the Eq. 2 model under simulation, real wall under TCP.
	var poolBefore parallel.Stats
	pooled, hasPool := rtm.(interface{ KernelPool() *parallel.Pool })
	if hasPool {
		poolBefore = pooled.KernelPool().Stats()
	}
	before := rtm.Stats()
	err := rt.RunStage(rtm, st)
	after := rtm.Stats()

	meas := obs.StageMeas{
		Stage:              st.Name,
		Op:                 opKey,
		Tasks:              st.NumTasks,
		ConsolidationBytes: after.ConsolidationBytes - before.ConsolidationBytes,
		AggregationBytes:   after.AggregationBytes - before.AggregationBytes,
		ExtraWireBytes:     after.ExtraWireBytes - before.ExtraWireBytes,
		Flops:              after.Flops - before.Flops,
		PeakTaskMemBytes:   after.PeakTaskMemBytes, // running max, not a delta
		WallSeconds:        after.SimSeconds - before.SimSeconds,
	}
	o.Measure(meas)
	pred, _ := o.Prediction(opKey)
	o.LearnStage(pred, meas)

	o.Counter(obs.MStagesTotal).Inc()
	o.Counter(obs.MConsolidationBytes).Add(meas.ConsolidationBytes)
	o.Counter(obs.MAggregationBytes).Add(meas.AggregationBytes)
	o.Counter(obs.MExtraBytes).Add(meas.ExtraWireBytes)
	o.Counter(obs.MFlopsTotal).Add(meas.Flops)
	o.Counter(obs.MCacheHits).Add(after.CacheHits - before.CacheHits)
	o.Counter(obs.MCacheMisses).Add(after.CacheMisses - before.CacheMisses)
	o.Counter(obs.MCacheEvictions).Add(after.CacheEvictions - before.CacheEvictions)
	o.Gauge(obs.MCacheSavedBytes).Set(float64(after.CacheSavedBytes))

	// Pipelined-execution diff, all zero under simulation. The TCP
	// coordinator bumps the fuseme_prefetch_*/fuseme_steal_* counters itself
	// as it serves pulls; here the diff only feeds the flight record.
	pfBlocks := after.PrefetchBlocks - before.PrefetchBlocks
	pfBytes := after.PrefetchBytes - before.PrefetchBytes
	steals := after.StealTasks - before.StealTasks
	dFetch := after.FetchSeconds - before.FetchSeconds
	dPrefetch := after.PrefetchSeconds - before.PrefetchSeconds
	dTask := after.TaskSeconds - before.TaskSeconds
	overlap := 0.0
	if dFetch+dPrefetch > 0 {
		overlap = dPrefetch / (dPrefetch + dFetch)
	}

	// Straggler/skew: fold the stage's per-task samples into the detector,
	// publish the stage imbalance and refreshed per-worker slowdown scores.
	var skew *obs.StageSkew
	if o.Skew != nil {
		sk := o.Skew.FinishStage(st.Name)
		if sk.Tasks > 0 {
			skew = &sk
			o.Gauge(obs.MStageSkew).Set(sk.Imbalance)
			for worker, score := range o.Skew.Slowdowns() {
				o.Gauge(obs.WorkerSlowdownGauge(worker)).Set(score)
			}
		}
	}

	// Flight recorder: one black-box line per stage execution, joining the
	// operator's prediction (when the planner recorded one) to this stage's
	// stats diff. The stage_end journal event embeds the identical record, so
	// query introspection and the flight file can never disagree.
	rec := obs.FlightRecord{
		Stage: st.Name,
		Op:    opKey,
		Kind:  pred.Kind,
		P:     pred.P,
		Q:     pred.Q,
		R:     pred.R,
		Tasks: st.NumTasks,

		PredNetBytes: pred.NetBytes,
		PredComFlops: pred.ComFlops,
		PredMemBytes: pred.MemBytes,

		MeasWallSeconds:        meas.WallSeconds,
		MeasConsolidationBytes: meas.ConsolidationBytes,
		MeasAggregationBytes:   meas.AggregationBytes,
		MeasExtraWireBytes:     meas.ExtraWireBytes,
		MeasFlops:              meas.Flops,
		MeasPeakTaskMemBytes:   meas.PeakTaskMemBytes,
		CacheHits:              after.CacheHits - before.CacheHits,
		CacheMisses:            after.CacheMisses - before.CacheMisses,
		CacheSavedBytes:        after.CacheSavedBytes - before.CacheSavedBytes,

		PrefetchBlocks:      pfBlocks,
		PrefetchBytes:       pfBytes,
		StealTasks:          steals,
		MeasFetchSeconds:    dFetch,
		MeasPrefetchSeconds: dPrefetch,
		MeasTaskSeconds:     dTask,
		OverlapRatio:        overlap,
	}
	o.RecordFlight(rec)
	if o.QLog != nil {
		end := obs.Event{Type: obs.EvStageEnd, Stage: st.Name, Op: opKey,
			Tasks: st.NumTasks, Seconds: meas.WallSeconds, Flight: &rec, Skew: skew}
		if err != nil {
			end.Error = err.Error()
		}
		o.Emit(end)
	}
	if hasPool {
		pool := pooled.KernelPool()
		poolAfter := pool.Stats()
		o.Gauge(obs.MKernelThreads).Set(float64(pool.Threads()))
		o.Counter(obs.MKernelParallelCalls).Add(poolAfter.ParallelCalls - poolBefore.ParallelCalls)
		o.Counter(obs.MKernelSerialCalls).Add(poolAfter.SerialCalls - poolBefore.SerialCalls)
		o.Counter(obs.MKernelHelperRuns).Add(poolAfter.HelperRuns - poolBefore.HelperRuns)
	}

	if span != nil {
		span.Arg("consolidation_bytes", meas.ConsolidationBytes).
			Arg("aggregation_bytes", meas.AggregationBytes).
			Arg("flops", meas.Flops).
			Arg("stage_seconds", meas.WallSeconds)
		if err != nil {
			span.Arg("error", err.Error())
		}
		span.End()
	}
	return err
}

// wrapTaskFn instruments the in-process task body with a span per task plus
// latency, queue-wait and skew observations; nodes is the simulated worker
// count, attributing task ID to its home node the same way the sim cluster
// places tasks. Only the sim backend executes Fn; the TCP coordinator emits
// its own task telemetry worker-side and through its SetObs hook.
func wrapTaskFn(o *obs.Obs, inner func(*cluster.Task) error, stageStart time.Time, nodes int) func(*cluster.Task) error {
	tasks := o.Counter(obs.MTasksTotal)
	latency := o.Histogram(obs.MTaskSeconds)
	queued := o.Histogram(obs.MQueueSeconds)
	if nodes <= 0 {
		nodes = 1
	}
	return func(task *cluster.Task) error {
		start := time.Now()
		queued.Observe(start.Sub(stageStart).Seconds())
		// Task tracks are 1-based: track 0 is the plan/stage track.
		span := o.StartSpan(fmt.Sprintf("task %d", task.ID), "task", 1+task.ID%64)
		var tt *cluster.TaskTrace
		if o.Tracing() {
			tt = &cluster.TaskTrace{}
			task.SetTrace(tt)
		}
		err := inner(task)
		elapsed := time.Since(start).Seconds()
		latency.Observe(elapsed)
		o.ObserveTask(task.ID%nodes, elapsed)
		tasks.Inc()
		if span != nil {
			cons, agg, flops, memPeak := task.Counters()
			span.Arg("consolidation_bytes", cons).
				Arg("aggregation_bytes", agg).
				Arg("flops", flops).
				Arg("peak_mem_bytes", memPeak)
			span.End()
		}
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

// specPQR recovers the cuboid parameters from a stage descriptor; (0,0,0)
// for grid stages, which have no cuboid partitioning.
func specPQR(sp *spec.Stage) (p, q, r int) {
	if len(sp.IRanges) == 0 || len(sp.JRanges) == 0 {
		return 0, 0, 0
	}
	r = len(sp.KRanges)
	if r == 0 {
		r = 1
	}
	return len(sp.IRanges), len(sp.JRanges), r
}
