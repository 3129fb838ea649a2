package obs

import (
	"io"
	"sync"
	"time"
)

// EventType names one step of a query's lifecycle in the event journal.
type EventType string

// Query lifecycle event types, in the order a successful served query
// emits them. Library sessions (no serve daemon in front) start at
// EvPlanned — received/queued/admitted are admission-control steps.
const (
	EvReceived   EventType = "received"    // submission arrived (serve)
	EvQueued     EventType = "queued"      // waiting for admission; Cause says on what
	EvAdmitted   EventType = "admitted"    // admission granted; Seconds is the wait
	EvPlanned    EventType = "planned"     // plan chosen; Plan/PredSeconds describe it
	EvStageStart EventType = "stage_start" // one distributed stage began
	EvStageEnd   EventType = "stage_end"   // stage finished; Flight carries pred vs meas
	EvDone       EventType = "done"        // query completed; Seconds is end-to-end
	EvFailed     EventType = "failed"      // query failed; Error says why
)

// Event is one entry of the per-query event journal. Fields beyond the
// identity triple (Query, Seq, Type) are populated per type and omitted from
// the JSON encoding when empty, so the JSONL sink stays compact. A stage_end
// event embeds the exact FlightRecord the flight recorder wrote for the same
// stage — the query-introspection endpoint serves these verbatim, which is
// what makes its predicted-vs-measured costs match the flight file exactly.
type Event struct {
	Query    string    `json:"query"`
	Seq      int64     `json:"seq"`
	Type     EventType `json:"type"`
	UnixNano int64     `json:"t_unix_nano,omitempty"`
	Tenant   string    `json:"tenant,omitempty"`

	// Admission (received/queued/admitted).
	Cause string `json:"cause,omitempty"` // what a queued submission waits on

	// Planning (planned).
	Engine       string  `json:"engine,omitempty"`
	Plan         string  `json:"plan,omitempty"` // PhysPlan.Describe text
	PlanCacheHit bool    `json:"plan_cache_hit,omitempty"`
	Operators    int     `json:"operators,omitempty"`
	PredSeconds  float64 `json:"pred_seconds,omitempty"` // Eq. 2 total across operators

	// Stages (stage_start/stage_end).
	Stage  string        `json:"stage,omitempty"`
	Op     string        `json:"op,omitempty"`
	Tasks  int           `json:"tasks,omitempty"`
	Flight *FlightRecord `json:"flight,omitempty"`
	Skew   *StageSkew    `json:"skew,omitempty"`

	// Completion (done/failed) and waits (admitted).
	Seconds float64 `json:"seconds,omitempty"`
	Error   string  `json:"error,omitempty"`
}

// DefaultJournalRing is the in-memory event capacity when NewJournal is
// given a non-positive size.
const DefaultJournalRing = 4096

// Journal is the per-query event log: a bounded in-memory ring every
// component appends lifecycle events to, with an optional JSONL sink for
// offline analysis. One journal is shared across the sessions of a serve
// daemon so `GET /v1/queries/{id}` can join any query's events. Safe for
// concurrent use; a nil *Journal absorbs every call.
type Journal struct {
	mu   sync.Mutex
	ring []Event // capacity-bounded; oldest overwritten first
	next int     // ring write cursor: len(ring) until the ring is full
	sink *JSONL  // optional; nil = ring only
}

// NewJournal returns a journal holding the last ring events in memory
// (non-positive selects DefaultJournalRing) and mirroring every event to
// sink as a JSON line; a nil sink keeps the ring only. The sink stays the
// caller's: Flush pushes buffered lines to it, closing it is the caller's job.
func NewJournal(ring int, sink io.Writer) *Journal {
	if ring <= 0 {
		ring = DefaultJournalRing
	}
	j := &Journal{ring: make([]Event, 0, ring)}
	if sink != nil {
		j.sink = NewJSONL(sink)
	}
	return j
}

// append stamps and stores one event, mirroring it to the sink.
func (j *Journal) append(e Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if e.UnixNano == 0 {
		e.UnixNano = time.Now().UnixNano()
	}
	if len(j.ring) < cap(j.ring) {
		j.ring = append(j.ring, e)
	} else {
		j.ring[j.next] = e
	}
	j.next = (j.next + 1) % cap(j.ring)
	j.sink.Write(e)
}

// Events returns the retained events of one query, in sequence order.
func (j *Journal) Events(query string) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	for i := range j.ring {
		// Oldest first: a full ring starts at the write cursor.
		if e := j.ring[(j.next+i)%len(j.ring)]; e.Query == query {
			out = append(out, e)
		}
	}
	return out
}

// Flush forces buffered sink output to the underlying writer and returns
// the sink's latched write error, if any. The in-memory ring is unaffected.
func (j *Journal) Flush() error {
	if j == nil {
		return nil
	}
	return j.sink.Flush()
}

// Begin opens one query's event log: subsequent Emit calls stamp the query
// id, tenant and a per-query sequence number. Safe on a nil journal (the
// returned log absorbs every Emit).
func (j *Journal) Begin(query, tenant string) *QueryLog {
	if j == nil {
		return nil
	}
	return &QueryLog{j: j, query: query, tenant: tenant}
}

// QueryLog emits one query's events into its journal with a shared sequence
// counter, so serve-level admission events and session-level stage events
// interleave in order. Safe for concurrent use; nil absorbs every call.
type QueryLog struct {
	j      *Journal
	query  string
	tenant string
	mu     sync.Mutex
	seq    int64
}

// Emit appends one event, filling in the query id, tenant and sequence.
func (q *QueryLog) Emit(e Event) {
	if q == nil {
		return
	}
	e.Query = q.query
	if e.Tenant == "" {
		e.Tenant = q.tenant
	}
	q.mu.Lock()
	q.seq++
	e.Seq = q.seq
	q.mu.Unlock()
	q.j.append(e)
}

// ReadEvents parses a JSONL stream of journal events (the sink's format).
func ReadEvents(r io.Reader) ([]Event, error) {
	return readJSONL[Event](r, "journal event")
}
