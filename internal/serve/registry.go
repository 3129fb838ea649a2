package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"fuseme/internal/obs"
)

// maxRecentQueries bounds the finished-query ring behind GET /v1/queries.
const maxRecentQueries = 64

// maxScriptPreview truncates the script echoed in query records.
const maxScriptPreview = 200

// QueryRecord is one query's row in the registry: live while executing,
// retained in the recent ring afterwards.
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

// queryRegistry tracks live and recently finished queries by id.
type queryRegistry struct {
	mu     sync.Mutex
	next   int64
	live   map[string]*QueryRecord
	recent []*QueryRecord // oldest first, bounded
}

func newQueryRegistry() *queryRegistry {
	return &queryRegistry{live: map[string]*QueryRecord{}}
}

// begin registers a new query and returns its record (owned by the registry;
// mutate via the update/finish methods).
func (qr *queryRegistry) begin(tenant, script string, mem int64) *QueryRecord {
	if len(script) > maxScriptPreview {
		script = script[:maxScriptPreview] + "..."
	}
	qr.mu.Lock()
	defer qr.mu.Unlock()
	qr.next++
	rec := &QueryRecord{
		ID:               fmt.Sprintf("q-%06d", qr.next),
		Tenant:           tenant,
		State:            "queued",
		Script:           script,
		ReceivedUnixNano: time.Now().UnixNano(),
		MemBytes:         mem,
	}
	qr.live[rec.ID] = rec
	return rec
}

// update applies fn to the record under the registry lock.
func (qr *queryRegistry) update(rec *QueryRecord, fn func(*QueryRecord)) {
	qr.mu.Lock()
	fn(rec)
	qr.mu.Unlock()
}

// finish retires a record from the live table into the recent ring with the
// given terminal state.
func (qr *queryRegistry) finish(rec *QueryRecord, state string, fn func(*QueryRecord)) {
	qr.mu.Lock()
	rec.State = state
	if fn != nil {
		fn(rec)
	}
	delete(qr.live, rec.ID)
	qr.recent = append(qr.recent, rec)
	if len(qr.recent) > maxRecentQueries {
		qr.recent = qr.recent[len(qr.recent)-maxRecentQueries:]
	}
	qr.mu.Unlock()
}

// lookup finds a record (live or recent) by id.
func (qr *queryRegistry) lookup(id string) (QueryRecord, bool) {
	qr.mu.Lock()
	defer qr.mu.Unlock()
	if rec := qr.live[id]; rec != nil {
		return *rec, true
	}
	for i := len(qr.recent) - 1; i >= 0; i-- {
		if qr.recent[i].ID == id {
			return *qr.recent[i], true
		}
	}
	return QueryRecord{}, false
}

// list snapshots the registry: live queries (by id) then recent ones, newest
// first.
func (qr *queryRegistry) list() (live, recent []QueryRecord) {
	qr.mu.Lock()
	defer qr.mu.Unlock()
	for _, rec := range qr.live {
		live = append(live, *rec)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].ID < live[j].ID })
	for i := len(qr.recent) - 1; i >= 0; i-- {
		recent = append(recent, *qr.recent[i])
	}
	return live, recent
}

// QueryList is the GET /v1/queries document.
type QueryList struct {
	Live   []QueryRecord `json:"live"`
	Recent []QueryRecord `json:"recent"`
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

// QueryDetail is the GET /v1/queries/{id} document: the registry record, the
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

// detail joins the registry record with the query's journal events.
func (s *Server) detail(id string) (QueryDetail, bool) {
	rec, ok := s.queries.lookup(id)
	if !ok {
		return QueryDetail{}, false
	}
	d := QueryDetail{QueryRecord: rec}
	d.Events = s.journal.Events(id)
	for i := range d.Events {
		e := &d.Events[i]
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
		live, recent := s.queries.list()
		writeJSON(w, http.StatusOK, QueryList{Live: live, Recent: recent})
		return
	}
	d, ok := s.detail(rest)
	if !ok {
		writeJSON(w, http.StatusNotFound, httpError{Error: fmt.Sprintf("serve: unknown query %q", rest)})
		return
	}
	writeJSON(w, http.StatusOK, d)
}
