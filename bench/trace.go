package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"fuseme/internal/cluster"
	"fuseme/internal/matrix"
	"fuseme/internal/rt"
	"fuseme/internal/rt/remote"
	"fuseme/internal/rt/spec"
)

// Span categories. A category is the layer boundary the span was recorded
// at; the self-time table and the per-layer metrics aggregate by category.
const (
	catOp      = "op"           // one hand-walked op: the Session.Query replica
	catParse   = "lang.parse"   // lang.Parse
	catLookup  = "plancache"    // plancache.Canonicalize + Lookup
	catCompile = "core.compile" // core.FuseME{}.Compile
	catExecute = "core.execute" // core.Execute (the exec driver)
	catStage   = "stage"        // cluster RunStage (closure stage, in-process)
	catRStage  = "remote.stage" // coordinator RunSpecStage (descriptor stage)
	catTask    = "task"         // one closure task body
	catFetch   = "remote.fetch" // rt.Stage.Fetch served to a worker
	catCollect = "remote.collect"
)

// span is one recorded interval. All spans of an op share its op number;
// parent is the id of the span that caused this one (0 = none).
type span struct {
	id, parent int
	op         int
	name, cat  string
	start, end time.Duration // since tracer.t0
	lane       int           // display row, assigned when the trace is written
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory until the run ends. Task, fetch and collect
// spans are recorded from concurrent goroutines, hence the mutex.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name, cat string, op, parent int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, op: op, name: name, cat: cat, start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// stageRecorder is the state both runtime decorators share: the tracer and
// the op/parent the next stage belongs to (set by the hand-walk before it
// calls core.Execute; one query runs at a time).
type stageRecorder struct {
	tr     *tracer
	op     int
	parent int
}

// runClosureStage records one stage span and one span per closure task
// around the inner runtime's RunStage.
func (r *stageRecorder) runClosureStage(name string, numTasks int, fn func(*cluster.Task) error,
	inner func(string, int, func(*cluster.Task) error) error) error {
	st := r.tr.begin(name, catStage, r.op, r.parent)
	defer r.tr.end(st)
	return inner(name, numTasks, func(t *cluster.Task) error {
		id := r.tr.begin(fmt.Sprintf("%s/task %d", name, t.ID), catTask, r.op, st)
		defer r.tr.end(id)
		return fn(t)
	})
}

// tracedSim decorates the in-process cluster. Embedding the concrete type
// forwards rt.BlockCacher, PrefetchHistory and KernelPool exactly as the
// undecorated cluster has them, so internal/exec takes the same path.
type tracedSim struct {
	*cluster.Cluster
	rec *stageRecorder
}

func (t *tracedSim) RunStage(name string, numTasks int, fn func(*cluster.Task) error) error {
	return t.rec.runClosureStage(name, numTasks, fn, t.Cluster.RunStage)
}

// tracedTCP decorates the TCP coordinator: rt.SpecRunner and rt.BlockCacher
// come from the embedded coordinator; like it, the decorator has neither
// PrefetchHistory nor KernelPool.
type tracedTCP struct {
	*remote.Coordinator
	rec *stageRecorder
}

func (t *tracedTCP) RunStage(name string, numTasks int, fn func(*cluster.Task) error) error {
	return t.rec.runClosureStage(name, numTasks, fn, t.Coordinator.RunStage)
}

// RunSpecStage records the stage span and wraps the stage's Fetch and
// Collect callbacks, which is where blocks cross between the coordinator's
// data and the wire.
func (t *tracedTCP) RunSpecStage(st *rt.Stage) error {
	r := t.rec
	id := r.tr.begin(st.Name, catRStage, r.op, r.parent)
	defer r.tr.end(id)
	wrapped := *st
	wrapped.Fetch = func(ref spec.BlockRef) (matrix.Mat, error) {
		f := r.tr.begin("fetch", catFetch, r.op, id)
		defer r.tr.end(f)
		return st.Fetch(ref)
	}
	wrapped.Collect = func(taskID int, blocks []spec.OutBlock) error {
		c := r.tr.begin(fmt.Sprintf("collect %d", taskID), catCollect, r.op, id)
		defer r.tr.end(c)
		return st.Collect(taskID, blocks)
	}
	return t.Coordinator.RunSpecStage(&wrapped)
}

// unionLen is the total length of the union of the given intervals clipped
// to [lo, hi].
func unionLen(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	cur := lo
	for _, x := range iv {
		s, e := x[0], x[1]
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its child spans cover (children may overlap each other).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][][2]time.Duration)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], [2]time.Duration{s.start, s.end})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - unionLen(children[s.id], s.start, s.end)
	}
	return self
}

// assignLanes gives concurrent spans of one parent distinct display rows:
// each span takes the lowest lane that is free at its start. Stage-level
// spans sit on lane 0. It returns, per parent span, the busy time of its
// busiest lane (what the stage would take with free dispatch).
func assignLanes(spans []span) map[int]time.Duration {
	byParent := map[int][]int{}
	for i, s := range spans {
		if s.cat == catTask || s.cat == catFetch || s.cat == catCollect {
			byParent[s.parent] = append(byParent[s.parent], i)
		}
	}
	longest := make(map[int]time.Duration, len(byParent))
	for parent, idx := range byParent {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].start < spans[idx[b]].start })
		var laneEnd, laneBusy []time.Duration
		for _, i := range idx {
			lane := -1
			for l, e := range laneEnd {
				if e <= spans[i].start {
					lane = l
					break
				}
			}
			if lane < 0 {
				lane = len(laneEnd)
				laneEnd = append(laneEnd, 0)
				laneBusy = append(laneBusy, 0)
			}
			laneEnd[lane] = spans[i].end
			laneBusy[lane] += spans[i].dur()
			spans[i].lane = lane + 1
		}
		for _, b := range laneBusy {
			if b > longest[parent] {
				longest[parent] = b
			}
		}
	}
	return longest
}

// writeChromeTrace writes the spans in the Chrome trace-event format
// (chrome://tracing, ui.perfetto.dev).
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{Name: s.name, Cat: s.cat, Ph: "X",
			Ts: float64(s.start.Nanoseconds()) / 1e3, Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.lane,
			Args: map[string]int{"op": s.op, "id": s.id, "parent": s.parent}}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSelfTimeTable prints, per category, span count, total duration and
// total self time, each also per op.
func writeSelfTimeTable(w io.Writer, spans []span, ops int) {
	type row struct {
		n           int
		total, self time.Duration
	}
	self := selfTimes(spans)
	rows := map[string]*row{}
	for i, s := range spans {
		r := rows[s.cat]
		if r == nil {
			r = &row{}
			rows[s.cat] = r
		}
		r.n++
		r.total += s.dur()
		r.self += self[i]
	}
	cats := make([]string, 0, len(rows))
	for c := range rows {
		cats = append(cats, c)
	}
	sort.Slice(cats, func(i, j int) bool { return rows[cats[i]].self > rows[cats[j]].self })
	fmt.Fprintf(w, "self-time table (%d traced ops; self = duration minus child coverage)\n", ops)
	fmt.Fprintf(w, "  %-16s %8s %12s %12s %14s\n", "category", "spans", "total_s", "self_s", "self_s/op")
	for _, c := range cats {
		r := rows[c]
		fmt.Fprintf(w, "  %-16s %8d %12.6f %12.6f %14.9f\n", c, r.n, r.total.Seconds(), r.self.Seconds(),
			r.self.Seconds()/float64(ops))
	}
}
