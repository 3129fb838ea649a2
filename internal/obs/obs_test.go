package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"fuseme/internal/cluster"
)

func TestNilSafety(t *testing.T) {
	// Every call on nil receivers must be a no-op, not a panic.
	var o *Obs
	o.StageDone(FlightRecord{Op: "a"}, StageSkew{}, nil)
	o.TaskDone("s", TaskSample{})

	var tl *Timeline
	if tl.Events() != nil {
		t.Fatal("nil timeline should be empty")
	}
	tl.Reset()

	end := &Event{Type: EvStageEnd, Flight: &FlightRecord{}, Skew: &StageSkew{Tasks: 1}}
	var c *Calibration
	c.Fold(end)
	c.Reset()
	if got := c.Report(cluster.Config{Nodes: 4}); len(got.Rows) != 0 {
		t.Fatal("nil calibration should report no rows")
	}

	var reg *Registry
	reg.Counter("x").Inc()
	reg.Gauge("g").Add(1)
	reg.Fold(end)
	reg.PublishKernelPool(nil)
	reg.Reset()
	if err := reg.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	Replay([]Event{*end}, nil, nil)

	// Obs with only some components set.
	partial := &Obs{Calib: NewCalibration()}
	partial.StageDone(FlightRecord{Op: "a"}, StageSkew{Tasks: 1}, nil)
	partial.TaskDone("s", TaskSample{})
	if rows := partial.Calib.Report(cluster.Config{Nodes: 1}).Rows; len(rows) != 1 {
		t.Fatalf("calib-only Obs rows = %+v, want the stage's", rows)
	}
}

// traced returns an Obs that journals task events onto a fresh timeline, and
// the timeline.
func traced() (*Obs, *Timeline) {
	tl := new(Timeline)
	return &Obs{Trace: true, QLog: NewQueryLog(nil, "q1", "").Tee(tl)}, tl
}

// renderSpans renders events and returns the trace's "X" spans in order.
func renderSpans(t *testing.T, events []Event) []TraceEvent {
	t.Helper()
	doc, err := ChromeTrace(events)
	if err != nil {
		t.Fatal(err)
	}
	var trace chromeTrace
	if err := json.Unmarshal(doc, &trace); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", trace.DisplayTimeUnit)
	}
	var spans []TraceEvent
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" {
			spans = append(spans, ev)
		}
	}
	return spans
}

// TestChromeTraceRendersQueryStagesAndTasks: a query's planned and done
// events draw its plan span, a stage's start and end events its stage span
// with the partitioning and measured totals, and a task event its task span
// with its sub-spans, all on the local process and nested in time; a stage
// that failed carries its error.
func TestChromeTraceRendersQueryStagesAndTasks(t *testing.T) {
	o, tl := traced()
	o.QLog.Emit(Event{Type: EvPlanned, Operators: 2})
	o.QLog.Emit(Event{Type: EvStageStart, Stage: "cuboid:mul#1", Tasks: 1, Phase: "cuboid", Grid: "4x4x2", PQR: []int{2, 2, 1}})
	start := time.Now()
	time.Sleep(time.Millisecond)
	o.TaskDone("cuboid:mul#1", TaskSample{ID: 3, Worker: 1, StageStart: start, Start: start, End: time.Now(),
		Metrics: cluster.Stats{Flops: 7}, Spans: []cluster.TaskSpan{{Name: "kernel", Cat: "taskop", Offset: 0, Dur: time.Microsecond}}})
	o.StageDone(FlightRecord{Stage: "cuboid:mul#1", Tasks: 1, Meas: cluster.Stats{Flops: 7, WallSeconds: 0.001}}, StageSkew{}, errors.New("boom"))
	o.QLog.Emit(Event{Type: EvDone})

	spans := renderSpans(t, tl.Events())
	if len(spans) != 4 {
		t.Fatalf("spans = %+v, want task, sub-span, stage and plan", spans)
	}
	task, sub, stage, plan := spans[0], spans[1], spans[2], spans[3]
	if task.Name != "task 3" || task.Cat != "task" || task.TID != 4 || task.Args["flops"] != float64(7) {
		t.Fatalf("task span wrong: %+v", task)
	}
	if sub.Name != "kernel" || sub.TID != task.TID || sub.TS != task.TS {
		t.Fatalf("sub-span wrong: %+v", sub)
	}
	if stage.Name != "cuboid:mul#1" || stage.Cat != "stage" || stage.TID != 0 ||
		stage.Args["phase"] != "cuboid" || stage.Args["P"] != float64(2) || stage.Args["R"] != float64(1) ||
		stage.Args["grid"] != "4x4x2" || stage.Args["flops"] != float64(7) || stage.Args["error"] != "boom" {
		t.Fatalf("stage span wrong: %+v", stage)
	}
	if plan.Name != "plan" || plan.Cat != "plan" || plan.TS != 0 || plan.Args["operators"] != float64(2) {
		t.Fatalf("plan span wrong: %+v", plan)
	}
	for _, sp := range spans {
		if sp.PID != PIDLocal {
			t.Errorf("span %q on pid %d, want the local process", sp.Name, sp.PID)
		}
	}
	// Nesting: the plan encloses the stage, the stage the task.
	encloses := func(out, in TraceEvent) bool { return out.TS <= in.TS && out.TS+out.Dur >= in.TS+in.Dur }
	if !encloses(plan, stage) || !encloses(stage, task) {
		t.Fatalf("plan %+v, stage %+v, task %+v do not nest", plan, stage, task)
	}
	if task.Dur < 900 { // slept 1ms; durations are µs
		t.Fatalf("task dur = %gµs, want ≥ 900", task.Dur)
	}
}

// TestTaskEventsStayUnderTheLineCap: an attempt with many sub-spans is
// journaled as several task events, each line far below ReadEvents' 1 MiB
// cap, and the sink read back renders the same bytes as the live timeline,
// every sub-span included.
func TestTaskEventsStayUnderTheLineCap(t *testing.T) {
	const subSpans = 50_000
	var sink bytes.Buffer
	tl := new(Timeline)
	j := NewJournal(0, &sink)
	o := &Obs{Trace: true, QLog: j.Begin("q1", "").Tee(tl)}
	start := time.Now()
	spans := make([]cluster.TaskSpan, subSpans)
	for i := range spans {
		spans[i] = cluster.TaskSpan{Name: "fetch", Cat: "taskop", Offset: time.Duration(i), Dur: 1}
	}
	o.TaskDone("cuboid:mul#1", TaskSample{ID: 1, Worker: 0, StageStart: start, Start: start, End: start.Add(time.Millisecond), Spans: spans})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(sink.String(), "\n"), "\n")
	if want := (subSpans + taskEventSpans - 1) / taskEventSpans; len(lines) != want {
		t.Fatalf("journaled %d lines, want %d", len(lines), want)
	}
	for i, line := range lines {
		if len(line) >= 1<<18 {
			t.Fatalf("line %d is %d bytes, want well below the 1 MiB cap", i, len(line))
		}
	}
	back, err := ReadEvents(&sink)
	if err != nil {
		t.Fatal(err)
	}
	live, err := ChromeTrace(tl.Events())
	if err != nil {
		t.Fatal(err)
	}
	offline, err := ChromeTrace(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, offline) {
		t.Fatal("the sink read back renders another trace than the live timeline")
	}
	if got := len(renderSpans(t, back)); got != subSpans+1 {
		t.Fatalf("rendered %d spans, want the task and its %d sub-spans", got, subSpans)
	}
}

// TestResetForgetsSlowdowns: after Reset, the slowdown scores are those of a
// fresh registry fed the same stages — nothing from before the reset blends in.
func TestResetForgetsSlowdowns(t *testing.T) {
	stage := func(w0, w1 float64) StageSkew {
		return StageSkew{Tasks: 2, Workers: []WorkerLoad{{Worker: 0, Tasks: 1, Seconds: w0}, {Worker: 1, Tasks: 1, Seconds: w1}}}
	}
	reset := &Obs{Metrics: NewRegistry()}
	reset.StageDone(FlightRecord{}, stage(9, 1), nil)
	reset.Metrics.Reset()
	fresh := &Obs{Metrics: NewRegistry()}
	for _, o := range []*Obs{reset, fresh} {
		o.StageDone(FlightRecord{}, stage(1, 2), nil)
	}
	got, want := reset.Metrics.slowdownsLocked(), fresh.Metrics.slowdownsLocked()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("slowdowns after a reset = %v, a fresh registry's = %v", got, want)
	}
	for w, score := range want {
		if g := reset.Metrics.Snapshot().Gauges[WorkerSlowdownGauge(w)]; g != score {
			t.Errorf("worker %d gauge = %g, want %g", w, g, score)
		}
	}
}

func TestRegistryMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MTasksTotal).Add(5)
	reg.Counter(MTasksTotal).Inc()
	reg.Counter(MConsolidationBytes).Add(1000)
	reg.Counter(MAggregationBytes).Add(200)
	reg.Gauge(MWorkersAlive).Set(3)
	h := reg.Histogram(MTaskSeconds)
	h.Observe(0.002)
	h.Observe(0.2)
	h.Observe(250) // beyond last bound → +Inf bucket

	if got := reg.Counter(MTasksTotal).Value(); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
	snap := reg.Snapshot()
	if snap.Counters[MConsolidationBytes] != 1000 {
		t.Fatalf("snapshot counters = %v", snap.Counters)
	}
	if snap.Gauges[MWorkersAlive] != 3 {
		t.Fatalf("snapshot gauges = %v", snap.Gauges)
	}
	hs := snap.Histograms[MTaskSeconds]
	if hs.Count != 3 || hs.Max != 250 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
	wantMean := (0.002 + 0.2 + 250) / 3
	if diff := hs.Mean - wantMean; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("mean = %g, want %g", hs.Mean, wantMean)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE fuseme_tasks_total counter\n",
		"fuseme_tasks_total 6\n",
		// One TYPE line for the labelled family, then each series.
		"# TYPE fuseme_wire_bytes_total counter\n",
		`fuseme_wire_bytes_total{class="aggregation"} 200` + "\n",
		`fuseme_wire_bytes_total{class="consolidation"} 1000` + "\n",
		"# TYPE fuseme_workers_alive gauge\n",
		"fuseme_workers_alive 3\n",
		"# TYPE fuseme_task_seconds histogram\n",
		`fuseme_task_seconds_bucket{le="+Inf"} 3` + "\n",
		"fuseme_task_seconds_count 3\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if strings.Count(text, "# TYPE fuseme_wire_bytes_total") != 1 {
		t.Fatalf("labelled family should get exactly one TYPE line:\n%s", text)
	}
	// Cumulative buckets: the 2.5ms bucket holds 1 observation, 0.25s holds 2.
	if !strings.Contains(text, `fuseme_task_seconds_bucket{le="0.0025"} 1`+"\n") ||
		!strings.Contains(text, `fuseme_task_seconds_bucket{le="0.25"} 2`+"\n") {
		t.Fatalf("cumulative buckets wrong:\n%s", text)
	}

	reg.Reset()
	if reg.Counter(MTasksTotal).Value() != 0 {
		t.Fatal("Reset should zero counters")
	}
	if reg.Gauge(MWorkersAlive).Value() != 3 {
		t.Fatal("Reset should keep gauge values")
	}
	if reg.Snapshot().Histograms[MTaskSeconds].Count != 0 {
		t.Fatal("Reset should zero histograms")
	}
}

func TestCalibrationReport(t *testing.T) {
	c := NewCalibration()
	cc := cluster.Config{Nodes: 4, NetBandwidth: 125e6, CompBandwidth: 546e9}

	// Net-bound operator: predicted net term 8e9/(4·125e6) = 16s dominates
	// the comp term 4e9/(4·546e9) ≈ 0.0018s. Measured: mul#1 moved 4e9 bytes
	// in 10s wall → eff B̂n = 4e9/(4·10) = 1e8.
	c.measure(FlightRecord{Stage: "cuboid:mul#1", Op: "CFO mul#1", Kind: "CFO", P: 2, Q: 2, R: 1, Tasks: 4,
		PredNetBytes: 8e9, PredComFlops: 4e9, PredMemBytes: 64 << 20,
		Meas: cluster.Stats{ConsolidationBytes: 3e9, AggregationBytes: 1e9, Flops: 4e9,
			PeakTaskMemBytes: 50 << 20, WallSeconds: 10}})
	// Comp-bound operator: mul#2 did 8e12 flops in 5s wall → eff B̂c =
	// 8e12/(4·5) = 4e11.
	c.measure(FlightRecord{Stage: "cuboid:mul#2", Op: "CFO mul#2", Kind: "CFO", P: 4, Q: 1, R: 1, Tasks: 4,
		PredNetBytes: 1e6, PredComFlops: 8e12, PredMemBytes: 32 << 20,
		Meas: cluster.Stats{ConsolidationBytes: 1e6, Flops: 8e12, WallSeconds: 5}})

	rep := c.Report(cc)
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rep.Rows))
	}
	r1, r2 := rep.Rows[0], rep.Rows[1]
	if r1.Op != "CFO mul#1" || r1.P != 2 || r1.Kind != "CFO" {
		t.Fatalf("row 1 = %+v", r1)
	}
	if r1.Meas.TotalCommBytes() != 4e9 || r1.Tasks != 4 || r1.Stages != 1 || r1.Executions != 1 {
		t.Fatalf("row 1 measurements = %+v", r1)
	}
	if want := 8e9 / (4 * 125e6); !close2(r1.PredSeconds, want) {
		t.Fatalf("row 1 PredSeconds = %g, want %g", r1.PredSeconds, want)
	}
	if !close2(r1.EffNetBW, 1e8) {
		t.Fatalf("row 1 EffNetBW = %g, want 1e8", r1.EffNetBW)
	}
	if !close2(r2.EffCompBW, 4e11) {
		t.Fatalf("row 2 EffCompBW = %g, want 4e11", r2.EffCompBW)
	}
	// Aggregates: only mul#1 is net-bound, only mul#2 comp-bound.
	if !close2(rep.EffNetBW, 1e8) || !close2(rep.EffCompBW, 4e11) {
		t.Fatalf("back-solved = %g / %g, want 1e8 / 4e11", rep.EffNetBW, rep.EffCompBW)
	}

	out := rep.String()
	for _, want := range []string{"CFO mul#1", "(2,2,1)", "back-solved", "feed back with"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestCalibrationFeedBackIsJudgedBandwidth: the paste-ready line carries the
// B̂c the report judged against — the back-solved one, or the configured one
// when no row was compute-bound — and the header the configured value.
func TestCalibrationFeedBackIsJudgedBandwidth(t *testing.T) {
	cc := cluster.Config{Nodes: 4, NetBandwidth: 125e6, CompBandwidth: 546e9}
	netBound := FlightRecord{Stage: "s1", Op: "CFO mul#1", PredNetBytes: 8e9, PredComFlops: 4e9,
		Meas: cluster.Stats{ConsolidationBytes: 4e9, Flops: 4e9, WallSeconds: 10}}
	compBound := FlightRecord{Stage: "s2", Op: "CFO mul#2", PredNetBytes: 1e6, PredComFlops: 8e12,
		Meas: cluster.Stats{ConsolidationBytes: 1e6, Flops: 8e12, WallSeconds: 5}} // eff B̂c 4e11
	for _, c := range []struct {
		name string
		recs []FlightRecord
		want string
	}{
		{"back-solved", []FlightRecord{netBound, compBound}, "CompBandwidth: 4e+11}"},
		{"configured", []FlightRecord{netBound}, "CompBandwidth: 5.46e+11}"},
	} {
		cal := NewCalibration()
		for _, r := range c.recs {
			cal.measure(r)
		}
		out := cal.Report(cc).String()
		if !strings.Contains(out, "B̂c=546 Gflop/s") || !strings.Contains(out, c.want) {
			t.Errorf("%s: want the configured B̂c=546 Gflop/s in the header and %q in:\n%s", c.name, c.want, out)
		}
	}
}

func TestCalibrationIterativeExecutions(t *testing.T) {
	c := NewCalibration()
	pred := FlightRecord{Op: "CFO mul#1", Kind: "CFO", P: 2, Q: 2, R: 2,
		PredNetBytes: 1e9, PredComFlops: 1e9}
	// Three iterations, each with a partial and a fuse stage.
	for i := 0; i < 3; i++ {
		partial, fuse := pred, pred
		partial.Stage, partial.Tasks = "partial:mul#1", 8
		partial.Meas = cluster.Stats{ConsolidationBytes: 5e8, Flops: 1e9, WallSeconds: 1}
		fuse.Stage, fuse.Tasks = "fuse:mul#1", 4
		fuse.Meas = cluster.Stats{AggregationBytes: 5e8, WallSeconds: 0.5}
		c.measure(partial)
		c.measure(fuse)
	}
	rep := c.Report(cluster.Config{Nodes: 2, NetBandwidth: 125e6, CompBandwidth: 546e9})
	if len(rep.Rows) != 1 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	row := rep.Rows[0]
	if row.Executions != 3 || row.Stages != 6 {
		t.Fatalf("executions = %d stages = %d, want 3/6", row.Executions, row.Stages)
	}
	if row.PredNetBytes != 3e9 { // scaled by executions
		t.Fatalf("PredNetBytes = %d, want 3e9", row.PredNetBytes)
	}
	if n := row.Meas.TotalCommBytes(); n != 3e9 {
		t.Fatalf("measured net bytes = %d", n)
	}

	c.Reset()
	if rep := c.Report(cluster.Config{Nodes: 2}); len(rep.Rows) != 0 {
		t.Fatal("Reset should clear records")
	}
}

// TestCalibrationBoundedGrowth: the always-on store must hold O(operator
// keys) records however many stages it measures — serve pools sessions for
// the process lifetime and never resets them — and folding must report the
// same sums a per-measurement log would.
func TestCalibrationBoundedGrowth(t *testing.T) {
	const calls, keys = 100_000, 8
	c := NewCalibration()
	ops := make([]string, keys)
	for k := range ops {
		ops[k] = fmt.Sprintf("CFO mul#%d", k)
	}
	for i := 0; i < calls; i++ {
		stage := "partial:"
		if (i/keys)%2 == 1 {
			stage = "fuse:"
		}
		c.measure(FlightRecord{Stage: stage + ops[i%keys], Op: ops[i%keys], Kind: "CFO", P: 2, Q: 2, R: 1, Tasks: 2,
			PredNetBytes: 1e6, PredComFlops: 1e6,
			Meas: cluster.Stats{ConsolidationBytes: 3, AggregationBytes: 1, Flops: 5, WallSeconds: 0.5}})
	}
	names := 0
	for _, s := range c.rows {
		names += len(s.stageNames)
	}
	if len(c.rows) != keys || names != 2*keys {
		t.Fatalf("store holds %d rows / %d stage names after %d calls; want %d/%d",
			len(c.rows), names, calls, keys, 2*keys)
	}
	rep := c.Report(cluster.Config{Nodes: 2, NetBandwidth: 1e9, CompBandwidth: 1e10})
	if len(rep.Rows) != keys {
		t.Fatalf("rows = %d, want %d", len(rep.Rows), keys)
	}
	const per = calls / keys
	for _, row := range rep.Rows {
		if row.Stages != per || row.Tasks != 2*per || row.Executions != per/2 ||
			row.Meas.TotalCommBytes() != 4*per || row.Meas.Flops != 5*per || row.Meas.WallSeconds != 0.5*per {
			t.Fatalf("row %+v does not sum %d measurements", row, per)
		}
	}
}

// TestCalibrationReportOrder: operators appear in plan order — by the root
// node ID their key ends in, then by key — whichever was measured first, a
// row without an ID (the collect stage's) last, and a row shows the
// prediction of its operator's latest record.
func TestCalibrationReportOrder(t *testing.T) {
	c := NewCalibration()
	c.measure(FlightRecord{Stage: "s", Op: "CFO b(/)#16", P: 1})
	c.measure(FlightRecord{Stage: "collect", Op: "driver"})
	c.measure(FlightRecord{Stage: "s", Op: "CFO b(/)#9"})
	c.measure(FlightRecord{Stage: "s", Op: "CuboidMM ba(x)#9"})
	c.measure(FlightRecord{Stage: "s", Op: "CFO b(/)#9"})
	c.measure(FlightRecord{Stage: "s", Op: "CFO b(/)#16", P: 4})
	rows := c.Report(cluster.Config{Nodes: 1}).Rows
	var got []string
	for _, row := range rows {
		got = append(got, row.Op)
	}
	if want := "CFO b(/)#9|CuboidMM ba(x)#9|CFO b(/)#16|driver"; strings.Join(got, "|") != want {
		t.Fatalf("row order = %v, want %s", got, want)
	}
	if rows[2].P != 4 || rows[2].Executions != 2 {
		t.Fatalf("row #16 = %+v, want the latest record's P=4 over 2 executions", rows[2])
	}
}

func TestServeMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MTasksTotal).Add(7)
	srv, err := ServeMetrics("127.0.0.1:0", reg, func() any {
		return map[string]int{"stages": 2}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	if !strings.Contains(string(body), "fuseme_tasks_total 7") {
		t.Fatalf("/metrics body:\n%s", body)
	}

	resp, err = http.Get("http://" + srv.Addr() + "/debug/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc struct {
		Metrics Snapshot       `json:"metrics"`
		Stats   map[string]int `json:"stats"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/debug/stats not JSON: %v\n%s", err, body)
	}
	if doc.Metrics.Counters[MTasksTotal] != 7 || doc.Stats["stages"] != 2 {
		t.Fatalf("/debug/stats = %+v", doc)
	}

	if err := srv.Close(); err != nil && err != http.ErrServerClosed {
		t.Fatalf("Close: %v", err)
	}
	var nilSrv *Server
	if nilSrv.Addr() != "" || nilSrv.Close() != nil {
		t.Fatal("nil server should be inert")
	}
}

func close2(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-6*(absf(a)+absf(b)+1)
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestPlaceBody: a body shorter than its dispatch window is centred in it
// and its sub-spans keep their offsets from its start; a body longer than its
// window, or a sub-span past its body, is clamped to the window's edges; a
// body that fills its window (the sim's) places every span at its own offset.
func TestPlaceBody(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		name            string
		window, body    time.Duration
		off, dur        time.Duration
		wantAt, wantDur time.Duration
	}{
		{"short body centred", 10 * ms, 4 * ms, 0, 4 * ms, 3 * ms, 4 * ms},
		{"sub-span keeps its offset", 10 * ms, 4 * ms, 1 * ms, 2 * ms, 4 * ms, 2 * ms},
		{"sub-span past its body", 10 * ms, 4 * ms, 3 * ms, 9 * ms, 6 * ms, 4 * ms},
		{"long body clamped", 4 * ms, 10 * ms, 0, 10 * ms, 0, 4 * ms},
		{"sub-span before the window", 4 * ms, 10 * ms, 1 * ms, 1 * ms, 0, 0},
		{"sub-span across the window's start", 4 * ms, 10 * ms, 2 * ms, 2 * ms, 0, 1 * ms},
		{"sub-span after the window", 4 * ms, 10 * ms, 8 * ms, 1 * ms, 4 * ms, 0},
		{"body fills its window", 10 * ms, 10 * ms, 2 * ms, 5 * ms, 2 * ms, 5 * ms},
	} {
		at, dur := placeBody(tc.window, tc.body)(tc.off, tc.dur)
		if at != tc.wantAt || dur != tc.wantDur {
			t.Errorf("%s: placed at %v for %v, want %v for %v", tc.name, at, dur, tc.wantAt, tc.wantDur)
		}
	}

	// Whatever the window, body and span, the span lies in the window with a
	// non-negative duration.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		window, body := time.Duration(rng.Int63n(1e6)), time.Duration(rng.Int63n(2e6))
		off, dur := time.Duration(rng.Int63n(3e6)-5e5), time.Duration(rng.Int63n(2e6))
		at, d := placeBody(window, body)(off, dur)
		if at < 0 || d < 0 || at+d > window {
			t.Fatalf("window %v body %v span %v+%v: placed at %v for %v", window, body, off, dur, at, d)
		}
	}
}

// TestTaskDoneDrawsARemoteBodyInItsWindow: a remote task draws its dispatch
// window on the local track (cat "sched") and its body and sub-spans on its
// worker's track, inside that window; a failed remote task draws the window
// alone.
func TestTaskDoneDrawsARemoteBodyInItsWindow(t *testing.T) {
	o, tl := traced()
	start := time.Now()
	end := start.Add(10 * time.Millisecond)
	o.TaskDone("cuboid:mul#1", TaskSample{ID: 3, Worker: 1, Remote: true, StageStart: start, Start: start, End: end,
		Metrics: cluster.Stats{TaskSeconds: 0.002}, Spans: []cluster.TaskSpan{
			{Name: "fetch", Cat: "taskop", Offset: 0, Dur: time.Millisecond},
			{Name: "send", Cat: "taskop", Offset: time.Millisecond, Dur: time.Hour},
		}})
	o.TaskDone("cuboid:mul#1", TaskSample{ID: 4, Worker: -1, Remote: true, StageStart: start, Start: start, End: end, Err: errors.New("gone")})
	ev := renderSpans(t, tl.Events())
	if len(ev) != 5 {
		t.Fatalf("recorded %d spans, want sched, task, two sub-spans and a failed sched: %+v", len(ev), ev)
	}
	sched, body := ev[0], ev[1]
	if sched.Cat != "sched" || sched.PID != PIDLocal || body.Name != "task 3" || body.Cat != "task" || body.PID != PIDWorkerBase+1 {
		t.Fatalf("window %+v, body %+v", sched, body)
	}
	if mid := body.TS + body.Dur/2 - (sched.TS + sched.Dur/2); math.Abs(mid) > 1e-3 || body.Dur != 2000 {
		t.Errorf("body %+v is not centred, 2 ms long, in window %+v", body, sched)
	}
	for _, sub := range ev[2:4] {
		if sub.PID != body.PID || sub.TID != body.TID || sub.Dur < 0 || sub.TS < body.TS || sub.TS+sub.Dur > sched.TS+sched.Dur+1e-3 {
			t.Errorf("sub-span %+v is not on the body's track inside the window %+v", sub, sched)
		}
	}
	if failed := ev[4]; failed.Cat != "sched" || failed.Args["error"] != "gone" {
		t.Errorf("failed task drew %+v, want its window with the error", failed)
	}
}
