// Package obs is the observability subsystem: the per-query event journal,
// its Chrome trace_event rendering (ChromeTrace), a metrics registry with
// Prometheus-text and JSON endpoints, and a cost-model calibration store that
// joins the planner's NetEst/ComEst/MemEst predictions against measured
// execution so effective cluster bandwidths can be back-solved.
//
// The rule of the package: one FlightRecord per executed stage, the
// operator's prediction next to the stage's measurement, which is the
// cluster.Stats the runtime reported for the stage; every other output —
// calibration rows, the fuseme_* stage counters, the journal's stage_end
// event — is derived from it in Obs.StageDone. One level down, a TaskSample
// is the one record of a finished task attempt on either runtime, carrying
// the task's own cluster.Stats. The dispatcher hands it to the stage that ran
// it, which reports it to Obs.TaskDone and folds its own samples into the
// StageSkew it passes to Obs.StageDone (StageSkewOf). The registry keeps the
// per-worker slowdown EWMA across stages next to the gauges it publishes, so
// sessions that share a registry share one history. With tracing on,
// TaskDone journals the sample as a task event, so the journal is the one
// per-query timeline: a trace is ChromeTrace over its events, live or read
// back from a sink.
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

	"fuseme/internal/cluster"
)

// Obs bundles one session's observability components. Any field may be nil;
// the whole struct may be nil. Helper methods absorb both.
type Obs struct {
	Trace   bool         // journal a task event per attempt, with the body's sub-spans
	Metrics *Registry    // metrics registry, with the per-worker slowdown history; nil disables both
	Calib   *Calibration // prediction/measurement join; nil disables calibration
	QLog    *QueryLog    // current query's event-journal log (stage_end carries the flight record); nil disables journaling
}

// Enabled reports whether any component is active (stage-level hooks run).
func (o *Obs) Enabled() bool {
	return o != nil && (o.Trace || o.Metrics != nil || o.Calib != nil || o.QLog != nil)
}

// Tracing reports whether tracing is on — the signal backends use to decide
// whether task bodies should collect sub-spans.
func (o *Obs) Tracing() bool {
	return o != nil && o.Trace
}

// PerTask reports whether per-task instrumentation (task events, latency
// histograms, skew samples) should run. Calibration alone is stage-level and
// does not require the per-task wrapper.
func (o *Obs) PerTask() bool {
	return o != nil && (o.Trace || o.Metrics != nil)
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

// StageDone is the one emit point of an executed stage, and the one place a
// stage's stats are folded: rec — the owning operator's prediction next to
// what the runtime measured — is folded into the calibration rows, added to
// the stage counters and embedded, together with the stage's task-duration
// skew, in the journal's stage_end event, so the three outputs can never
// disagree. skew is StageSkewOf the task samples the stage received (zero
// when it took none); the registry publishes it (Registry.ObserveSkew) and
// the journal carries it when the metrics registry is on. err is the stage's
// failure, if any. A nil Obs or any nil component absorbs its share.
func (o *Obs) StageDone(rec FlightRecord, skew StageSkew, err error) {
	if o == nil {
		return
	}
	m := rec.Meas
	o.Calib.Measure(rec)
	o.Counter(MStagesTotal).Inc()
	o.Counter(MConsolidationBytes).Add(m.ConsolidationBytes)
	o.Counter(MAggregationBytes).Add(m.AggregationBytes)
	o.Counter(MExtraBytes).Add(m.ExtraWireBytes)
	o.Counter(MFlopsTotal).Add(m.Flops)
	o.Counter(MCacheHits).Add(m.CacheHits)
	o.Counter(MCacheMisses).Add(m.CacheMisses)
	o.Counter(MCacheEvictions).Add(m.CacheEvictions)
	o.Counter(MStealTasks).Add(m.StealTasks)
	// A running total, kept under the gauge type the series always had.
	saved := o.Gauge(MCacheSavedBytes)
	saved.Set(saved.Value() + float64(m.CacheSavedBytes))

	var sk *StageSkew
	if o.Metrics != nil && skew.Tasks > 0 {
		sk = &skew
		o.Metrics.ObserveSkew(skew)
	}

	// The record is copied to the heap only when the journal is on, so the
	// calibration-only default allocates nothing per stage here.
	if o.QLog != nil {
		flight := rec
		end := Event{Type: EvStageEnd, Stage: rec.Stage, Op: rec.Op, Tasks: rec.Tasks,
			Seconds: m.SimSeconds, Flight: &flight, Skew: sk}
		if err != nil {
			end.Error = err.Error()
		}
		o.QLog.Emit(end)
	}
}

// TaskSample is one finished task attempt as its dispatcher saw it: the sim
// executor's task wrapper and the TCP coordinator's dispatch lane both fill
// one and hand it to the stage that ran it, which reports it to Obs.TaskDone
// and folds its stage's samples with StageSkewOf. The JSON form is the
// journal's task event; Err travels as the event's error text.
type TaskSample struct {
	ID     int `json:"id"`
	Worker int `json:"worker"` // worker that ran the task; negative = none to attribute (no skew sample)
	// Remote marks a body that ran in worker Worker's process: the trace
	// draws the attempt's window on this process's track (cat "sched"), and
	// the body (cat "task") with its sub-spans on the worker's track.
	Remote bool `json:"remote,omitempty"`

	StageStart time.Time `json:"stage_start"` // when the stage was dispatched; Start - StageStart is the queue wait
	Start      time.Time `json:"start"`       // when the task was started (remote: dispatched)
	End        time.Time `json:"end"`         // when the attempt ended (remote: its reply arrived)

	// Spans are the body's sub-spans, placed relative to its start. A local
	// body fills the whole window from Start to End; a remote one ran
	// Metrics.TaskSeconds by the worker's clock.
	Spans []cluster.TaskSpan `json:"spans,omitempty"`

	// Metrics is the task's own metering (cluster.Task.Metrics); zero for
	// an attempt that reported none.
	Metrics cluster.Stats `json:"metrics"`

	Err error `json:"-"`
}

// taskEventSpans bounds the sub-spans one task event carries, so that a
// journal line stays far below ReadEvents' 1 MiB cap (a span is about 60
// bytes of JSON). An attempt with more is journaled as several task events,
// Part 1, 2, ... carrying the further spans.
const taskEventSpans = 1024

// TaskDone is the one emit point of a finished task attempt, called as it
// returns: queue-wait and latency histograms, fuseme_tasks_total (and
// fuseme_remote_tasks_total for a remote one) and, with tracing on, the
// journal's task event.
func (o *Obs) TaskDone(t TaskSample) {
	if !o.PerTask() {
		return
	}
	o.Histogram(MQueueSeconds).Observe(t.Start.Sub(t.StageStart).Seconds())
	o.Histogram(MTaskSeconds).Observe(t.End.Sub(t.Start).Seconds())
	o.Counter(MTasksTotal).Inc()
	if t.Remote {
		o.Counter(MRemoteTasksTotal).Inc()
	}
	if !o.Trace || o.QLog == nil {
		return
	}
	ev := Event{Type: EvTask}
	if t.Err != nil {
		ev.Error = t.Err.Error()
	}
	spans := t.Spans
	for part := 0; part == 0 || len(spans) > 0; part++ {
		n := min(len(spans), taskEventSpans)
		sample := t
		sample.Spans, spans = spans[:n:n], spans[n:]
		ev.Task, ev.Part = &sample, part
		o.QLog.Emit(ev)
	}
}

// Reset clears calibration records and metric values (Registry.Reset).
func (o *Obs) Reset() {
	if o == nil {
		return
	}
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
	// heartbeat round trip on the worker's control connection.
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
