// Package obs is the observability subsystem: a lightweight span/trace
// recorder exporting Chrome trace_event JSON, a metrics registry with
// Prometheus-text and JSON endpoints, and a cost-model calibration store that
// joins the planner's NetEst/ComEst/MemEst predictions against measured
// execution so effective cluster bandwidths can be back-solved.
//
// The rule of the package: one FlightRecord per executed stage, built by the
// executor from the runtime's stage stats; every other output — calibration
// rows, the fuseme_* stage counters, the flight line, the journal's
// stage_end event — is derived from it in Obs.StageDone. One level down,
// Obs.TaskDone is the same single emit point for a finished task on either
// runtime.
//
// Everything is nil-safe by design: a nil *Obs (or a nil component inside a
// non-nil Obs) turns every instrumentation call into a pointer check and an
// immediate return, so disabled observability costs nothing on the task hot
// path. The executor, the runtimes and the session all accept an *Obs and
// never branch on "is observability on" beyond that nil check.
package obs

import (
	"fmt"
	"time"
)

// Obs bundles one session's observability components. Any field may be nil;
// the whole struct may be nil. Helper methods absorb both.
type Obs struct {
	Trace   *Recorder     // span recorder; nil disables tracing
	Metrics *Registry     // metrics registry; nil disables metrics
	Calib   *Calibration  // prediction/measurement join; nil disables calibration
	Flight  *JSONL        // per-stage flight recorder (one line per record); nil disables it
	QLog    *QueryLog     // current query's event-journal log; nil disables journaling
	Skew    *SkewDetector // straggler/skew detector; nil disables it
}

// Enabled reports whether any component is active (stage-level hooks run).
func (o *Obs) Enabled() bool {
	return o != nil && (o.Trace != nil || o.Metrics != nil || o.Calib != nil ||
		o.Flight != nil || o.QLog != nil || o.Skew != nil)
}

// Tracing reports whether the span recorder is active — the signal backends
// use to decide whether task bodies should collect sub-spans.
func (o *Obs) Tracing() bool {
	return o != nil && o.Trace != nil
}

// PerTask reports whether per-task instrumentation (spans, latency
// histograms, skew samples) should run. Calibration alone is stage-level and
// does not require the per-task wrapper.
func (o *Obs) PerTask() bool {
	return o != nil && (o.Trace != nil || o.Metrics != nil || o.Skew != nil)
}

// StartSpan opens a span on the recorder; nil when tracing is off.
func (o *Obs) StartSpan(name, cat string, tid int) *Span {
	if o == nil {
		return nil
	}
	return o.Trace.Start(name, cat, tid)
}

// Counter returns the named counter; nil when metrics are off.
func (o *Obs) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.Metrics.Counter(name)
}

// Gauge returns the named gauge; nil when metrics are off.
func (o *Obs) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Metrics.Gauge(name)
}

// Histogram returns the named duration histogram; nil when metrics are off.
func (o *Obs) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	return o.Metrics.Histogram(name)
}

// StageDone is the one emit point of an executed stage: rec — the owning
// operator's prediction next to what the runtime measured — is folded into
// the calibration rows, added to the stage counters, written as the flight
// line and embedded, together with the stage's task-duration skew, in the
// journal's stage_end event, so the four outputs can never disagree. err is
// the stage's failure, if any. A nil Obs or any nil component absorbs its
// share.
func (o *Obs) StageDone(rec FlightRecord, err error) {
	if o == nil {
		return
	}
	o.Calib.Measure(rec)
	o.Counter(MStagesTotal).Inc()
	o.Counter(MConsolidationBytes).Add(rec.MeasConsolidationBytes)
	o.Counter(MAggregationBytes).Add(rec.MeasAggregationBytes)
	o.Counter(MExtraBytes).Add(rec.MeasExtraWireBytes)
	o.Counter(MFlopsTotal).Add(rec.MeasFlops)
	o.Counter(MCacheHits).Add(rec.CacheHits)
	o.Counter(MCacheMisses).Add(rec.CacheMisses)
	// A running total, kept under the gauge type the series always had.
	saved := o.Gauge(MCacheSavedBytes)
	saved.Set(saved.Value() + float64(rec.CacheSavedBytes))

	// Straggler/skew: fold the stage's per-task samples, publish the stage
	// imbalance and the refreshed per-worker slowdown scores.
	var skew *StageSkew
	if sk := o.Skew.FinishStage(rec.Stage); sk.Tasks > 0 {
		skew = &sk
		o.Gauge(MStageSkew).Set(sk.Imbalance)
		for worker, score := range o.Skew.Slowdowns() {
			o.Gauge(WorkerSlowdownGauge(worker)).Set(score)
		}
	}

	// The record is boxed or copied to the heap only for a sink that is on,
	// so the calibration-only default allocates nothing per stage here.
	if o.Flight != nil {
		o.Flight.Write(rec)
	}
	if o.QLog != nil {
		flight := rec
		end := Event{Type: EvStageEnd, Stage: rec.Stage, Op: rec.Op, Tasks: rec.Tasks,
			Seconds: rec.MeasWallSeconds, Flight: &flight, Skew: skew}
		if err != nil {
			end.Error = err.Error()
		}
		o.QLog.Emit(end)
	}
}

// TaskSample is one finished task as its dispatcher saw it: the sim
// executor's task wrapper and the TCP coordinator's dispatch lane both fill
// one and hand it to Obs.TaskDone.
type TaskSample struct {
	ID     int
	Worker int // worker that ran the task; negative = none to attribute (no skew sample)
	// Cat is the span category: "task" when the body ran in this process,
	// "sched" for the coordinator's dispatch view of a remote task (whose
	// execution view the worker ships back itself).
	Cat string

	StageStart time.Time // when the stage was dispatched; Start - StageStart is the queue wait
	Start      time.Time // when the task started

	ConsolidationBytes, AggregationBytes, Flops, PeakMemBytes int64

	Err error
}

// TaskDone is the one emit point of a finished task, called as it returns:
// queue-wait and latency histograms, fuseme_tasks_total, the skew detector's
// sample and the task span.
func (o *Obs) TaskDone(t TaskSample) {
	if !o.PerTask() {
		return
	}
	elapsed := time.Since(t.Start)
	o.Histogram(MQueueSeconds).Observe(t.Start.Sub(t.StageStart).Seconds())
	o.Histogram(MTaskSeconds).Observe(elapsed.Seconds())
	o.Counter(MTasksTotal).Inc()
	if t.Worker >= 0 {
		o.Skew.ObserveTask(t.Worker, elapsed.Seconds())
	}
	if o.Trace != nil {
		args := map[string]any{
			"consolidation_bytes": t.ConsolidationBytes,
			"aggregation_bytes":   t.AggregationBytes,
			"flops":               t.Flops,
			"peak_mem_bytes":      t.PeakMemBytes,
		}
		if t.Err != nil {
			args["error"] = t.Err.Error()
		}
		// Task tracks are 1-based: track 0 is the plan/stage track.
		o.Trace.AddSpanAt(fmt.Sprintf("task %d", t.ID), t.Cat, PIDLocal, 1+t.ID%64, t.Start, elapsed, args)
	}
}

// Reset clears accumulated spans, calibration records and metric values
// (counters and histograms restart at zero; gauges keep their last value).
func (o *Obs) Reset() {
	if o == nil {
		return
	}
	o.Trace.Reset()
	o.Calib.Reset()
	o.Metrics.Reset()
}

// Metric names. Wire-byte counters carry a class label matching the
// simulated communication model's classification.
const (
	MTasksTotal         = "fuseme_tasks_total"
	MTaskSeconds        = "fuseme_task_seconds"
	MQueueSeconds       = "fuseme_task_queue_seconds"
	MStagesTotal        = "fuseme_stages_total"
	MConsolidationBytes = `fuseme_wire_bytes_total{class="consolidation"}`
	MAggregationBytes   = `fuseme_wire_bytes_total{class="aggregation"}`
	MExtraBytes         = `fuseme_wire_bytes_total{class="extra"}`
	MFlopsTotal         = "fuseme_flops_total"

	// TCP-runtime coordinator metrics. MWorkerRTT is a per-worker gauge
	// series (label the worker id with WorkerRTTGauge) holding the latest
	// control-connection round trip — the same sample the span merger's
	// clock-skew estimator consumes.
	MRemoteTasksTotal = "fuseme_remote_tasks_total"
	MRetriesTotal     = "fuseme_task_retries_total"
	MHeartbeatRTT     = "fuseme_heartbeat_rtt_seconds"
	MWorkerRTT        = "fuseme_worker_rtt_seconds"
	MWorkersAlive     = "fuseme_workers_alive"

	// Elastic-membership metrics. MClusterWorkers is a per-state gauge
	// series (label the liveness state with ClusterWorkersGauge);
	// MMembershipChanges counts accepted membership-table transitions.
	MClusterWorkers    = "fuseme_cluster_workers"
	MMembershipChanges = "fuseme_membership_changes_total"

	// Worker-process metrics.
	MWorkerTasksTotal  = "fuseme_worker_tasks_total"
	MWorkerTaskSeconds = "fuseme_worker_task_seconds"
	MWorkerFetchBytes  = "fuseme_worker_fetch_bytes_total"
	MWorkerResultBytes = "fuseme_worker_result_bytes_total"

	// Block-cache metrics (loop-invariant input caching).
	MCacheHits          = "fuseme_cache_hits_total"
	MCacheMisses        = "fuseme_cache_misses_total"
	MCacheEvictions     = "fuseme_cache_evictions_total"
	MCacheSavedBytes    = "fuseme_cache_saved_bytes_total"
	MCacheResidentBytes = "fuseme_cache_resident_bytes"

	// Intra-task kernel-pool metrics (internal/parallel utilization).
	MKernelThreads       = "fuseme_kernel_threads"
	MKernelParallelCalls = "fuseme_kernel_parallel_calls_total"
	MKernelSerialCalls   = "fuseme_kernel_serial_calls_total"
	MKernelHelperRuns    = "fuseme_kernel_helper_runs_total"

	// MStealTasks counts tasks an idle lane stole from a node whose lanes
	// were all busy (the stage driver's steal rule, on either runtime).
	MStealTasks = "fuseme_steal_tasks_total"

	// Plan-cache metrics (compiled-plan reuse across repeat queries).
	MPlanCacheHits    = "fuseme_plancache_hits_total"
	MPlanCacheMisses  = "fuseme_plancache_misses_total"
	MPlanCacheEntries = "fuseme_plancache_entries"

	// Serve-daemon metrics. The fuseme_tenant_* families are per-tenant
	// series; label them with TenantSeries.
	MServeQueries       = "fuseme_serve_queries_total"
	MServeActive        = "fuseme_serve_active_queries"
	MServeQuerySeconds  = "fuseme_serve_query_seconds"
	MTenantQueries      = "fuseme_tenant_queries_total"
	MTenantErrors       = "fuseme_tenant_errors_total"
	MTenantRejects      = "fuseme_tenant_rejects_total"
	MTenantTasks        = "fuseme_tenant_tasks_total"
	MTenantBytes        = "fuseme_tenant_wire_bytes_total"
	MTenantQueueDepth   = "fuseme_tenant_queue_depth"
	MTenantReservedByte = "fuseme_tenant_reserved_bytes"
	MTenantPlanHits     = "fuseme_tenant_plancache_hits_total"

	// Per-tenant SLO histograms (label with TenantSeries): admission
	// queue-wait and end-to-end query latency, so one tenant's p99
	// regression is visible even when global latency looks healthy.
	MTenantQueueSeconds = "fuseme_tenant_queue_seconds"
	MTenantQuerySeconds = "fuseme_tenant_query_seconds"

	// Straggler/skew metrics. MStageSkew holds the last finished stage's
	// max/median task-duration imbalance; MWorkerSlowdown is a per-worker
	// gauge series (label with WorkerSlowdownGauge) holding each worker's
	// EWMA slowdown score relative to the fleet median (healthy ≈ 1.0).
	MStageSkew      = "fuseme_stage_skew"
	MWorkerSlowdown = "fuseme_worker_slowdown"
)

// TenantSeries names one tenant's series of a per-tenant metric family,
// e.g. `fuseme_tenant_queries_total{tenant="acme"}`.
func TenantSeries(family, tenant string) string {
	return fmt.Sprintf(`%s{tenant=%q}`, family, tenant)
}

// WorkerRTTGauge names the per-worker round-trip gauge series, e.g.
// `fuseme_worker_rtt_seconds{worker="0"}`.
func WorkerRTTGauge(workerID int) string {
	return fmt.Sprintf(`%s{worker="%d"}`, MWorkerRTT, workerID)
}

// ClusterWorkersGauge names the per-state membership gauge series, e.g.
// `fuseme_cluster_workers{state="active"}`.
func ClusterWorkersGauge(state string) string {
	return fmt.Sprintf(`%s{state=%q}`, MClusterWorkers, state)
}

// WorkerSlowdownGauge names the per-worker slowdown gauge series, e.g.
// `fuseme_worker_slowdown{worker="1"}`.
func WorkerSlowdownGauge(workerID int) string {
	return fmt.Sprintf(`%s{worker="%d"}`, MWorkerSlowdown, workerID)
}
