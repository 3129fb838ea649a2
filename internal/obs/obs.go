// Package obs is the observability subsystem: the per-query event journal,
// its Chrome trace_event rendering (ChromeTrace), a metrics registry with
// Prometheus-text and JSON endpoints, and a cost-model calibration store that
// joins the planner's NetEst/ComEst/MemEst predictions against measured
// execution so effective cluster bandwidths can be back-solved.
//
// The rule of the package: one event per executed stage and per task
// attempt, folded by every consumer. A stage's is its stage_end: the
// FlightRecord (the operator's prediction next to the cluster.Stats the
// runtime reported for the stage) and, with a registry on, the skew of the
// TaskSamples the stage received (StageSkewOf). A task attempt's is its task
// event, naming its stage. Obs.StageDone and Obs.TaskDone build the event
// once and hand it, as it is emitted, to Calibration.Fold, to Registry.Fold
// (the fuseme_* series, and the per-worker slowdown history the registry
// keeps beside its gauges) and to the QueryLog. Replay runs the same folds
// over a journal read back, so an offline calibration or registry equals the
// live one by construction; a trace is ChromeTrace over the same events.
//
// Everything is nil-safe by design: a nil *Obs (or a nil component inside a
// non-nil Obs) turns every instrumentation call into a pointer check and an
// immediate return, so disabled observability costs nothing on the task hot
// path. The executor and the session accept an *Obs, the TCP runtime the
// *Registry it publishes to, and none branches on "is observability on"
// beyond that nil check.
package obs

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"fuseme/internal/cluster"
)

// Obs bundles one session's observability components. Any field may be nil;
// the whole struct may be nil.
type Obs struct {
	Trace   bool         // journal a task event per attempt, with the body's sub-spans
	Metrics *Registry    // metrics registry, with the per-worker slowdown history; nil disables both
	Calib   *Calibration // prediction/measurement join; nil disables calibration
	QLog    *QueryLog    // current query's event-journal log (stage_end carries the flight record); nil disables journaling
}

// StageDone is the one emit point of an executed stage: rec — the owning
// operator's prediction next to what the runtime measured — becomes the
// stage_end event, which the calibration and the registry fold and the
// journal keeps, so the three can never disagree. skew is StageSkewOf the
// task samples the stage received (zero when it took none); the event
// carries it when the metrics registry is on. err is the stage's failure, if
// any. A nil Obs or any nil component absorbs its share.
func (o *Obs) StageDone(rec FlightRecord, skew StageSkew, err error) {
	if o == nil {
		return
	}
	var msg string
	if err != nil {
		msg = err.Error()
	}
	end := stageEnd(&rec, msg)
	if o.Metrics != nil && skew.Tasks > 0 {
		end.Skew = &skew
	}
	o.Metrics.Fold(&end)
	o.Calib.Fold(&end)
	// The journal keeps its own copy of the record and the skew, so the
	// folds, on the stack, allocate nothing per stage.
	if o.QLog != nil {
		flight, kept := rec, skew
		ev := stageEnd(&flight, msg)
		if end.Skew != nil {
			ev.Skew = &kept
		}
		ev.UnixNano = end.UnixNano
		o.QLog.Emit(ev)
	}
}

// stageEnd is the stage_end event of rec.
func stageEnd(rec *FlightRecord, err string) Event {
	return Event{Type: EvStageEnd, Stage: rec.Stage, Op: rec.Op, Tasks: rec.Tasks,
		Seconds: rec.Meas.WallSeconds, Flight: rec, Error: err}
}

// Replay runs the live folds over journal events read back (ReadEvents):
// into c and r, either of which may be nil. The journal holds a query's
// stage events in plan order (QueryLog.Parts), but the live consumers folded
// them as they were emitted, so Replay folds in time order — the order
// Registry.Fold stamps skews in — and events of one time in journal order.
func Replay(events []Event, c *Calibration, r *Registry) {
	events = slices.Clone(events)
	slices.SortStableFunc(events, func(a, b Event) int { return cmp.Compare(a.UnixNano, b.UnixNano) })
	for i := range events {
		c.Fold(&events[i])
		r.Fold(&events[i])
	}
}

// TaskSample is one finished task attempt as its dispatcher saw it: the sim
// executor's task wrapper and the TCP coordinator's dispatch lane both fill
// one and hand it to the stage that ran it, which reports it to Obs.TaskDone
// and folds its stage's samples with StageSkewOf. The JSON form is the
// journal's task event's task object; Err travels as the event's error text.
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

// TaskDone is the one emit point of a finished task attempt of stage,
// called as it returns: the task event, which the registry folds (queue-wait
// and latency histograms, fuseme_tasks_total and, for a remote attempt,
// fuseme_remote_tasks_total) and, with tracing on, the journal keeps.
func (o *Obs) TaskDone(stage string, t TaskSample) {
	if o == nil {
		return
	}
	o.Metrics.Fold(&Event{Type: EvTask, Stage: stage, Task: &t})
	if !o.Trace || o.QLog == nil {
		return
	}
	ev := Event{Type: EvTask, Stage: stage}
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
