package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"fuseme/internal/obs"
)

// maxScriptPreview truncates the script a received event echoes.
const maxScriptPreview = 200

// scriptPreview is the script as a received event carries it.
func scriptPreview(script string) string {
	if len(script) > maxScriptPreview {
		return script[:maxScriptPreview] + "..."
	}
	return script
}

// QueryRecord is one query's row of GET /v1/queries, folded from the
// query's events in the shared journal (foldQueries).
type QueryRecord struct {
	ID               string  `json:"id"`
	Tenant           string  `json:"tenant"`
	State            string  `json:"state"` // queued, running, done, failed, rejected
	Script           string  `json:"script,omitempty"`
	ReceivedUnixNano int64   `json:"received_unix_nano"`
	MemBytes         int64   `json:"mem_bytes,omitempty"`
	QueueMillis      float64 `json:"queue_ms,omitempty"`
	ExecMillis       float64 `json:"exec_ms,omitempty"`
	PlanCacheHit     bool    `json:"plan_cache_hit,omitempty"`
	Error            string  `json:"error,omitempty"`
}

// terminal reports whether the record's query has ended.
func (r *QueryRecord) terminal() bool {
	return r.State == "done" || r.State == "failed" || r.State == "rejected"
}

// apply folds one of the query's events into the record. Each field comes
// from one event type; the state is the last lifecycle step's.
func (r *QueryRecord) apply(e *obs.Event) {
	r.ID, r.Tenant = e.Query, e.Tenant
	switch e.Type {
	case obs.EvReceived:
		r.State, r.Script, r.ReceivedUnixNano, r.MemBytes = "queued", e.Script, e.UnixNano, e.MemBytes
	case obs.EvQueued:
		r.State = "queued"
	case obs.EvAdmitted:
		r.State, r.QueueMillis = "running", e.Seconds*1e3
	case obs.EvPlanned:
		r.State, r.PlanCacheHit = "running", e.PlanCacheHit
	case obs.EvDone:
		r.State, r.ExecMillis = "done", e.Seconds*1e3
	case obs.EvFailed:
		r.State, r.ExecMillis, r.Error = "failed", e.Seconds*1e3, e.Error
		if e.Cause == "admission" {
			r.State = "rejected"
		}
	default: // stage and task events
		r.State = "running"
	}
}

// QueryList is the GET /v1/queries document.
type QueryList struct {
	Live   []QueryRecord `json:"live"`
	Recent []QueryRecord `json:"recent"`
}

// foldQueries folds journal events, oldest first, into one record per
// query: the queued and running ones by id, then the ended ones, the last to
// end first.
func foldQueries(events []obs.Event) QueryList {
	at := map[string]int{}    // query id -> index in recs
	var recs []QueryRecord    // in order of first event
	ended := map[string]int{} // query id -> index of its terminal event
	for i := range events {
		e := &events[i]
		k, ok := at[e.Query]
		if !ok {
			k = len(recs)
			at[e.Query] = k
			recs = append(recs, QueryRecord{})
		}
		if recs[k].apply(e); recs[k].terminal() {
			ended[e.Query] = i
		}
	}
	var list QueryList
	for _, r := range recs {
		if r.terminal() {
			list.Recent = append(list.Recent, r)
		} else {
			list.Live = append(list.Live, r)
		}
	}
	sort.Slice(list.Live, func(i, j int) bool { return list.Live[i].ID < list.Live[j].ID })
	sort.Slice(list.Recent, func(i, j int) bool { return ended[list.Recent[i].ID] > ended[list.Recent[j].ID] })
	return list
}

// StageStatus is one executed stage of a query detail: the flight record the
// executor measured (identical to the journal's stage_end.flight) plus
// the stage's task-duration skew and per-worker placement when the detector
// was on.
type StageStatus struct {
	Stage  string            `json:"stage"`
	Op     string            `json:"op,omitempty"`
	Flight *obs.FlightRecord `json:"flight,omitempty"`
	Skew   *obs.StageSkew    `json:"skew,omitempty"`
}

// QueryDetail is the GET /v1/queries/{id} document: the query's record, the
// chosen plan (EXPLAIN) annotated with the predicted cost, the
// per-stage predicted-vs-measured flight records (ANALYZE), and the raw
// event journal.
type QueryDetail struct {
	QueryRecord
	Engine      string        `json:"engine,omitempty"`
	Plan        string        `json:"plan,omitempty"`
	PredSeconds float64       `json:"pred_seconds,omitempty"`
	Stages      []StageStatus `json:"stages,omitempty"`
	Events      []obs.Event   `json:"events,omitempty"`
}

// detail folds one query's retained events into its detail document; a
// query with none is unknown.
func (s *Server) detail(id string) (QueryDetail, bool) {
	events := s.journal.Events(id)
	if len(events) == 0 {
		return QueryDetail{}, false
	}
	d := QueryDetail{Events: events}
	for i := range d.Events {
		e := &d.Events[i]
		d.apply(e)
		switch e.Type {
		case obs.EvPlanned:
			d.Engine, d.Plan, d.PredSeconds = e.Engine, e.Plan, e.PredSeconds
		case obs.EvStageEnd:
			d.Stages = append(d.Stages, StageStatus{
				Stage: e.Stage, Op: e.Op, Flight: e.Flight, Skew: e.Skew,
			})
		}
	}
	return d, true
}

// handleQueries serves GET /v1/queries and GET /v1/queries/{id}.
func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, httpError{Error: "GET only"})
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/queries")
	rest = strings.Trim(rest, "/")
	if rest == "" {
		writeJSON(w, http.StatusOK, foldQueries(s.journal.Retained()))
		return
	}
	d, ok := s.detail(rest)
	if !ok {
		writeJSON(w, http.StatusNotFound, httpError{Error: fmt.Sprintf("serve: unknown query %q", rest)})
		return
	}
	writeJSON(w, http.StatusOK, d)
}
