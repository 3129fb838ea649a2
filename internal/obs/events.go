package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
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
	EvTask       EventType = "task"        // one task attempt, when tracing is on; Task carries it, Stage names its stage
	EvDone       EventType = "done"        // query completed; Seconds is end-to-end
	EvFailed     EventType = "failed"      // query failed; Error says why
)

// Event is one entry of the per-query event journal. Fields beyond the
// identity triple (Query, Seq, Type) are populated per type and omitted from
// the JSON encoding when empty, so the JSONL sink stays compact. A stage_end
// event embeds the stage's FlightRecord, which makes the journal the one
// per-stage sink: the query-introspection endpoint serves these verbatim, so
// its predicted-vs-measured costs match the journal file exactly.
type Event struct {
	Query    string    `json:"query"`
	Seq      int64     `json:"seq"`
	Type     EventType `json:"type"`
	UnixNano int64     `json:"t_unix_nano,omitempty"`
	Tenant   string    `json:"tenant,omitempty"`

	// Admission (received/queued/admitted). A received event carries the
	// script's first 200 bytes and the memory demand admission reserves.
	Cause    string `json:"cause,omitempty"` // what a queued submission waits on
	Script   string `json:"script,omitempty"`
	MemBytes int64  `json:"mem_bytes,omitempty"`

	// Planning (planned).
	Engine         string  `json:"engine,omitempty"`
	Plan           string  `json:"plan,omitempty"` // PhysPlan.Describe text
	PlanCacheHit   bool    `json:"plan_cache_hit,omitempty"`
	Operators      int     `json:"operators,omitempty"`
	PredSeconds    float64 `json:"pred_seconds,omitempty"` // the plan's Eq. 2 clock (core.Simulate), a session's LastStats().SimSeconds
	ParseSeconds   float64 `json:"parse_s,omitempty"`      // script text to DAG
	CompileSeconds float64 `json:"compile_s,omitempty"`    // the engine's compile, or on a plan-cache hit the lookup

	// Stages (stage_start/stage_end; a task event names its stage too).
	// Phase, Grid (GIxGJxGK blocks) and PQR (the cuboid partitioning, absent
	// on a grid stage) describe the stage on its start event.
	Stage  string        `json:"stage,omitempty"`
	Op     string        `json:"op,omitempty"`
	Tasks  int           `json:"tasks,omitempty"`
	Phase  string        `json:"phase,omitempty"`
	Grid   string        `json:"grid,omitempty"`
	PQR    []int         `json:"pqr,omitempty"`
	Flight *FlightRecord `json:"flight,omitempty"`
	Skew   *StageSkew    `json:"skew,omitempty"`

	// Tasks (task). Part numbers the events of one attempt whose sub-spans
	// did not fit one event (taskEventSpans); each carries the whole sample
	// but its own share of the spans.
	Task *TaskSample `json:"task,omitempty"`
	Part int         `json:"part,omitempty"`

	// Completion (done/failed), waits (admitted) and a stage_end's measured
	// wall time.
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
// concurrent use; a nil *Journal absorbs every call. Sink write errors are
// latched: the first one stops further output and surfaces from Flush.
type Journal struct {
	mu      sync.Mutex
	ring    []Event       // capacity-bounded; oldest overwritten first
	next    int           // ring write cursor: len(ring) until the ring is full
	sink    *bufio.Writer // optional, set once by NewJournal; nil = ring only
	sinkErr error         // the sink's first write error
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
		j.sink = bufio.NewWriter(sink)
	}
	return j
}

// append stores one stamped event, mirroring it to the sink. The event's
// JSON line is encoded before the lock is taken; under it the ring takes the
// event and the sink its line, so the two keep one order.
func (j *Journal) append(e Event) {
	if j == nil {
		return
	}
	var line []byte
	var err error
	if j.sink != nil {
		if line, err = json.Marshal(e); err == nil {
			line = append(line, '\n')
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.ring) < cap(j.ring) {
		j.ring = append(j.ring, e)
	} else {
		j.ring[j.next] = e
	}
	j.next = (j.next + 1) % cap(j.ring)
	if j.sink != nil && j.sinkErr == nil {
		if err == nil {
			_, err = j.sink.Write(line)
		}
		j.sinkErr = err
	}
}

// Events returns the retained events of one query, in sequence order.
func (j *Journal) Events(query string) []Event {
	return j.retained(func(e *Event) bool { return e.Query == query })
}

// Retained returns every event the ring holds, oldest first; each query's
// events are in sequence order.
func (j *Journal) Retained() []Event {
	return j.retained(func(*Event) bool { return true })
}

// retained returns the held events keep accepts, oldest first.
func (j *Journal) retained(keep func(*Event) bool) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	for i := range j.ring {
		// Oldest first: a full ring starts at the write cursor.
		if e := &j.ring[(j.next+i)%len(j.ring)]; keep(e) {
			out = append(out, *e)
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
	j.mu.Lock()
	if j.sink != nil && j.sinkErr == nil {
		j.sinkErr = j.sink.Flush()
	}
	err := j.sinkErr
	j.mu.Unlock()
	return err
}

// Begin opens one query's event log: subsequent Emit calls stamp the query
// id, tenant and a per-query sequence number. Safe on a nil journal (the
// returned log absorbs every Emit).
func (j *Journal) Begin(query, tenant string) *QueryLog {
	if j == nil {
		return nil
	}
	return NewQueryLog(j, query, tenant)
}

// NewQueryLog is Begin on a journal that may be nil: the log is never nil,
// so a Tee can record a query no journal keeps.
func NewQueryLog(j *Journal, query, tenant string) *QueryLog {
	return &QueryLog{j: j, query: query, tenant: tenant}
}

// Tee makes q record every event it emits from now on into t as well, and
// returns q. A nil t leaves q as it is; a nil q stays nil.
func (q *QueryLog) Tee(t *Timeline) *QueryLog {
	if q != nil && t != nil {
		q.mu.Lock()
		q.tl = t
		q.mu.Unlock()
	}
	return q
}

// Timeline keeps every event it is given, in emission order, until Reset:
// the record a traced session renders its trace from (ChromeTrace). Unlike
// a journal's ring it drops nothing, so the trace covers every query since
// the last Reset whatever journal the queries also went to. The zero value
// is empty and ready; safe for concurrent use; a nil *Timeline absorbs
// every call.
type Timeline struct {
	mu     sync.Mutex
	events []Event
}

// Events returns a copy of the recorded events.
func (t *Timeline) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Reset discards the recorded events.
func (t *Timeline) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = nil
	t.mu.Unlock()
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
	tl     *Timeline // Tee target, under mu

	// parts, when set, makes this log part part of an ordered group (Parts):
	// its events reach the journal through the group.
	parts *logParts
	part  int
}

// logParts is a group of logs that emit into one query log in part order.
type logParts struct {
	q      *QueryLog
	mu     sync.Mutex
	cur    int       // the part whose events go straight through
	held   [][]Event // per part: events emitted before it was cur
	closed []bool
}

// Parts returns n logs that emit into q in part order: part i's events go
// straight through once parts 0..i-1 are closed (Close), and are held until
// then, each with the time it was emitted at. The plan executor gives each
// operator a part, so a query's stage events keep plan order in the
// journal's sequence however its operators overlap in time; their
// timestamps show the overlap. A nil q returns n nil logs.
func (q *QueryLog) Parts(n int) []*QueryLog {
	out := make([]*QueryLog, n)
	if q == nil {
		return out
	}
	g := &logParts{q: q, held: make([][]Event, n), closed: make([]bool, n)}
	for i := range out {
		out[i] = &QueryLog{parts: g, part: i}
	}
	return out
}

// Close ends a part of Parts: once every earlier part is closed too, the
// events the next parts held follow. It does nothing on a log that is not
// a part, and on nil.
func (q *QueryLog) Close() {
	if q == nil || q.parts == nil {
		return
	}
	g := q.parts
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closed[q.part] = true
	for g.cur < len(g.closed) && g.closed[g.cur] {
		if g.cur++; g.cur < len(g.held) {
			for _, e := range g.held[g.cur] {
				g.q.Emit(e)
			}
			g.held[g.cur] = nil
		}
	}
}

// Emit appends one event, filling in the time, query id, tenant and
// sequence.
func (q *QueryLog) Emit(e Event) {
	if q == nil {
		return
	}
	if e.UnixNano == 0 {
		e.UnixNano = time.Now().UnixNano()
	}
	if g := q.parts; g != nil {
		g.mu.Lock()
		defer g.mu.Unlock()
		if q.part == g.cur {
			g.q.Emit(e)
		} else {
			g.held[q.part] = append(g.held[q.part], e)
		}
		return
	}
	e.Query = q.query
	if e.Tenant == "" {
		e.Tenant = q.tenant
	}
	// One lock over both appends, so the journal and the timeline hold this
	// query's events in the same order.
	q.mu.Lock()
	defer q.mu.Unlock()
	q.seq++
	e.Seq = q.seq
	q.j.append(e)
	if t := q.tl; t != nil {
		t.mu.Lock()
		t.events = append(t.events, e)
		t.mu.Unlock()
	}
}

// ReadEvents parses a JSONL stream of journal events (the sink's format),
// skipping blank lines. A malformed or truncated line, or one over 1 MiB, is
// an error — never a silent stop.
func ReadEvents(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("obs: journal event %d: %w", len(out)+1, err)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}
