package obs

import (
	"encoding/json"
	"fmt"
	"time"
)

// Virtual process IDs of a rendered trace. The session process draws on
// PIDLocal; a task body that ran in worker w's process draws on
// PIDWorkerBase+w, one Chrome/Perfetto process track per worker.
const (
	PIDLocal      = 1
	PIDWorkerBase = 2
)

// TraceEvent is one entry of a rendered Chrome trace: a "complete" span (Ph
// "X") or a process_name record (Ph "M"). Timestamps and durations are
// microseconds from the earliest event rendered.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level Chrome trace file shape.
type chromeTrace struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// ChromeTrace renders journal events as a Chrome trace_event JSON document,
// loadable in chrome://tracing or ui.perfetto.dev. It reads only what the
// events' JSON carries, so a session's live events and the same events read
// back from a journal sink (ReadEvents) render the same bytes. On track 0, a
// query's planned and done (or failed) events draw its "plan" span, and a
// stage's start and end events its "stage" span. A task event draws its
// attempt as "task N" on track 1 + N mod 64: a local body fills its window,
// sub-spans at their own offsets; a remote attempt draws its window on the
// local track (cat "sched") and its body centred in it on the worker's
// process (placeBody), whose track is then named.
func ChromeTrace(events []Event) ([]byte, error) {
	r := traceRender{}
	for i, e := range events {
		at := e.UnixNano
		if e.Task != nil {
			at = min(at, e.Task.Start.UnixNano())
		}
		if i == 0 || at < r.origin {
			r.origin = at
		}
	}
	type stageKey struct{ query, stage string }
	plans := map[string]Event{}      // per query, its planned event
	stages := map[stageKey][]Event{} // stage_start events not yet ended
	for _, e := range events {
		switch k := (stageKey{e.Query, e.Stage}); e.Type {
		case EvPlanned:
			plans[e.Query] = e
		case EvDone, EvFailed:
			if p, ok := plans[e.Query]; ok {
				delete(plans, e.Query)
				r.span("plan", "plan", PIDLocal, 0, p.UnixNano, e.UnixNano, map[string]any{"operators": p.Operators})
			}
		case EvStageStart:
			stages[k] = append(stages[k], e)
		case EvStageEnd:
			if open := stages[k]; len(open) > 0 {
				stages[k] = open[1:]
				r.stage(open[0], e)
			}
		case EvTask:
			if e.Task != nil {
				r.task(e)
			}
		}
	}
	var meta []TraceEvent
	for pid := PIDLocal; r.workers > 0 && pid < PIDWorkerBase+r.workers; pid++ {
		name := "coordinator"
		if pid >= PIDWorkerBase {
			name = fmt.Sprintf("worker %d", pid-PIDWorkerBase)
		}
		meta = append(meta, TraceEvent{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": name}})
	}
	return json.Marshal(chromeTrace{TraceEvents: append(meta, r.spans...), DisplayTimeUnit: "ms"})
}

// traceRender accumulates the spans of one rendering.
type traceRender struct {
	origin  int64 // Unix nanoseconds of timestamp zero: the earliest instant recorded
	spans   []TraceEvent
	workers int // worker processes up to the highest one a body was drawn on
}

// span draws a complete span between two Unix instants in nanoseconds.
func (r *traceRender) span(name, cat string, pid, tid int, from, to int64, args map[string]any) {
	r.spans = append(r.spans, TraceEvent{Name: name, Cat: cat, Ph: "X",
		TS: float64(from-r.origin) / 1e3, Dur: float64(to-from) / 1e3, PID: pid, TID: tid, Args: args})
}

// stage draws a stage from its start event to its end event.
func (r *traceRender) stage(start, end Event) {
	args := map[string]any{"tasks": start.Tasks, "phase": start.Phase, "grid": start.Grid}
	if p := start.PQR; len(p) == 3 {
		args["P"], args["Q"], args["R"] = p[0], p[1], p[2]
	}
	if f := end.Flight; f != nil {
		args["consolidation_bytes"], args["aggregation_bytes"] = f.Meas.ConsolidationBytes, f.Meas.AggregationBytes
		args["flops"], args["stage_seconds"] = f.Meas.Flops, f.Meas.SimSeconds
	}
	if end.Error != "" {
		args["error"] = end.Error
	}
	r.span(start.Stage, "stage", PIDLocal, 0, start.UnixNano, end.UnixNano, args)
}

// task draws one task event: the attempt itself on part 0, and on every part
// the sub-spans the event carries.
func (r *traceRender) task(e Event) {
	t := e.Task
	start := t.Start.UnixNano()
	window := time.Duration(max(t.End.UnixNano()-start, 0))
	name, track := fmt.Sprintf("task %d", t.ID), 1+t.ID%64
	var args map[string]any
	if m := t.Metrics; e.Part == 0 {
		args = map[string]any{"consolidation_bytes": m.ConsolidationBytes, "aggregation_bytes": m.AggregationBytes,
			"flops": m.Flops, "peak_mem_bytes": m.PeakTaskMemBytes}
		if e.Error != "" {
			args["error"] = e.Error
		}
	}
	pid, body := PIDLocal, window
	if t.Remote {
		if e.Part == 0 {
			r.span(name, "sched", PIDLocal, track, start, start+int64(window), args)
		}
		if e.Error != "" {
			return // no body reported
		}
		pid, body, args = PIDWorkerBase+t.Worker, time.Duration(t.Metrics.TaskSeconds*float64(time.Second)), nil
		r.workers = max(r.workers, t.Worker+1)
	}
	at := placeBody(window, body)
	if e.Part == 0 {
		from, d := at(0, body)
		r.span(name, "task", pid, track, start+int64(from), start+int64(from+d), args)
	}
	for _, s := range t.Spans {
		from, d := at(s.Offset, s.Dur)
		r.span(s.Name, s.Cat, pid, track, start+int64(from), start+int64(from+d), nil)
	}
}

// placeBody places a task body of length body in the window of length window
// its dispatcher observed, and returns the map from a span relative to the
// body's start to the same span relative to the window's start. The body is
// centred: the window is the dispatch, the body and the reply, and the
// midpoint rule takes the two legs as equally long, as NTP does with a round
// trip. Every span is clamped into the window, so one that would reach past
// it — a body longer than its window, a sub-span past its body — ends at the
// window's edge, and no duration is negative. A body that fills its window
// (the sim's) lands at the window's start, every span at its own offset.
func placeBody(window, body time.Duration) func(off, dur time.Duration) (at, d time.Duration) {
	shift := (window - body) / 2
	clamp := func(d time.Duration) time.Duration { return min(max(d, 0), window) }
	return func(off, dur time.Duration) (time.Duration, time.Duration) {
		from := clamp(shift + off)
		return from, max(clamp(shift+off+dur), from) - from
	}
}
