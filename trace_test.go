package fuseme

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"fuseme/internal/obs"
)

// gnmfScript is one GNMF iteration (Eq. 6), both updates.
const gnmfScript = "U2 = U * (t(V) %*% X) / (t(V) %*% V %*% U)\nV2 = V * (X %*% t(U)) / (V %*% (U %*% t(U)))"

// bindGNMFInputs binds a small GNMF problem: X is 64x48 at density 0.1,
// four factors.
func bindGNMFInputs(s *Session) {
	s.RandomSparse("X", 64, 48, 0.1, 1, 5, 1)
	s.RandomDense("U", 4, 48, 0.2, 0.8, 2)
	s.RandomDense("V", 64, 4, 0.2, 0.8, 3)
}

// traceDoc is the shape of a rendered Chrome trace.
type traceDoc struct {
	TraceEvents []obs.TraceEvent `json:"traceEvents"`
}

// renderedTrace renders the session's trace and decodes it.
func renderedTrace(t *testing.T, sess *Session) traceDoc {
	t.Helper()
	var buf bytes.Buffer
	if err := sess.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return doc
}

// traceSpans returns the "X" spans of the session's rendered trace.
func traceSpans(t *testing.T, sess *Session) []obs.TraceEvent {
	t.Helper()
	var spans []obs.TraceEvent
	for _, ev := range renderedTrace(t, sess).TraceEvents {
		if ev.Ph == "X" {
			spans = append(spans, ev)
		}
	}
	return spans
}

// traceShape is the multiset of (cat, name, track, local-or-worker process)
// over a trace's spans, one line per (cat, name, process) listing
// track:count pairs, and the set of argument-key lists its stage spans
// carry.
func traceShape(doc traceDoc) (shape string, stageArgs []string) {
	counts := map[string]map[int]int{}
	keys := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		proc := "local"
		if ev.PID >= obs.PIDWorkerBase {
			proc = "worker"
		}
		row := ev.Cat + " " + ev.Name + " " + proc
		if counts[row] == nil {
			counts[row] = map[int]int{}
		}
		counts[row][ev.TID]++
		if ev.Cat == "stage" {
			var ks []string
			for k := range ev.Args {
				ks = append(ks, k)
			}
			sort.Strings(ks)
			keys[strings.Join(ks, ",")] = true
		}
	}
	var rows []string
	for row, tracks := range counts {
		var tids []int
		for tid := range tracks {
			tids = append(tids, tid)
		}
		sort.Ints(tids)
		for _, tid := range tids {
			row += fmt.Sprintf(" %d:%d", tid, tracks[tid])
		}
		rows = append(rows, row)
	}
	sort.Strings(rows)
	for k := range keys {
		stageArgs = append(stageArgs, k)
	}
	sort.Strings(stageArgs)
	return strings.Join(rows, "\n"), stageArgs
}

// TestTraceShapeUnchanged pins what the GNMF and NMF-kernel plans draw on
// each runtime: the multiset of (cat, name, track, process) over the spans
// and the stage spans' argument keys, captured from the span recorder the
// journal rendering replaced (20c5955). On TCP every body and sub-span moves
// to a worker's process and each attempt adds its dispatch window ("sched")
// on the local track; every pid is named.
func TestTraceShapeUnchanged(t *testing.T) {
	const gnmfSim = `plan plan local 0:1
stage fuse:b(/)#16 local 0:1
stage fuse:b(/)#9 local 0:1
stage fuse:ba(x)#14 local 0:1
stage fuse:ba(x)#7 local 0:1
stage partial:b(/)#16 local 0:1
stage partial:b(/)#9 local 0:1
stage partial:ba(x)#14 local 0:1
stage partial:ba(x)#7 local 0:1
task task 0 local 1:8
task task 1 local 2:6
task task 2 local 3:5
task task 3 local 4:4
task task 4 local 5:2
task task 5 local 6:2
task task 6 local 7:2
task task 7 local 8:2
taskop fetch local 1:19 2:13 3:12 4:9 5:6 6:4 7:6 8:4
taskop kernel local 1:10 2:7 3:6 4:5 5:2 6:2 7:2 8:2
taskop send local 1:10 2:7 3:6 4:5 5:2 6:2 7:2 8:2`
	const gnmfTCP = `plan plan local 0:1
sched task 0 local 1:8
sched task 1 local 2:6
sched task 2 local 3:5
sched task 3 local 4:4
sched task 4 local 5:2
sched task 5 local 6:2
sched task 6 local 7:2
sched task 7 local 8:2
stage fuse:b(/)#16 local 0:1
stage fuse:b(/)#9 local 0:1
stage fuse:ba(x)#14 local 0:1
stage fuse:ba(x)#7 local 0:1
stage partial:b(/)#16 local 0:1
stage partial:b(/)#9 local 0:1
stage partial:ba(x)#14 local 0:1
stage partial:ba(x)#7 local 0:1
task task 0 worker 1:8
task task 1 worker 2:6
task task 2 worker 3:5
task task 3 worker 4:4
task task 4 worker 5:2
task task 5 worker 6:2
task task 6 worker 7:2
task task 7 worker 8:2
taskop fetch worker 1:19 2:13 3:12 4:9 5:6 6:4 7:6 8:4
taskop kernel worker 1:10 2:7 3:6 4:5 5:2 6:2 7:2 8:2
taskop send worker 1:10 2:7 3:6 4:5 5:2 6:2 7:2 8:2`
	const nmfkSim = `plan plan local 0:1
stage local:b(*)#8 local 0:1
task task 0 local 1:1
task task 1 local 2:1
task task 2 local 3:1
task task 3 local 4:1
task task 4 local 5:1
task task 5 local 6:1
task task 6 local 7:1
task task 7 local 8:1
taskop fetch local 1:11 2:8 3:7 4:5 5:7 6:5 7:7 8:5
taskop kernel local 1:6 2:4 3:3 4:2 5:3 6:2 7:3 8:2
taskop send local 1:6 2:4 3:3 4:2 5:3 6:2 7:3 8:2`
	const nmfkTCP = `plan plan local 0:1
sched task 0 local 1:1
sched task 1 local 2:1
sched task 2 local 3:1
sched task 3 local 4:1
sched task 4 local 5:1
sched task 5 local 6:1
sched task 6 local 7:1
sched task 7 local 8:1
stage local:b(*)#8 local 0:1
task task 0 worker 1:1
task task 1 worker 2:1
task task 2 worker 3:1
task task 3 worker 4:1
task task 4 worker 5:1
task task 5 worker 6:1
task task 6 worker 7:1
task task 7 worker 8:1
taskop fetch worker 1:11 2:8 3:7 4:5 5:7 6:5 7:7 8:5
taskop kernel worker 1:6 2:4 3:3 4:2 5:3 6:2 7:3 8:2
taskop send worker 1:6 2:4 3:3 4:2 5:3 6:2 7:3 8:2`
	const stageArgs = "P,Q,R,aggregation_bytes,consolidation_bytes,flops,grid,phase,stage_seconds,tasks"
	for _, tc := range []struct {
		plan, runtime, want string
	}{
		{"gnmf", "sim", gnmfSim}, {"gnmf", "tcp", gnmfTCP},
		{"nmfk", "sim", nmfkSim}, {"nmfk", "tcp", nmfkTCP},
	} {
		t.Run(tc.plan+"/"+tc.runtime, func(t *testing.T) {
			cfg := LocalClusterConfig()
			cfg.BlockSize = 16
			if cfg.Runtime = tc.runtime; tc.runtime == "tcp" {
				cfg.Workers = startWorkers(t, 2)
			}
			sess, err := NewSession(cfg, WithTracing())
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			script := obsTestScript
			if tc.plan == "gnmf" {
				bindGNMFInputs(sess)
				script = gnmfScript
			} else {
				bindTestInputs(sess)
			}
			if _, err := sess.Query(script); err != nil {
				t.Fatal(err)
			}
			doc := renderedTrace(t, sess)
			shape, keys := traceShape(doc)
			if shape != tc.want {
				t.Errorf("trace shape moved:\n got\n%s\nwant\n%s", shape, tc.want)
			}
			if len(keys) != 1 || keys[0] != stageArgs {
				t.Errorf("stage span argument keys = %q, want [%s]", keys, stageArgs)
			}
			named := map[int]bool{}
			for _, ev := range doc.TraceEvents {
				if ev.Ph == "M" && ev.Name == "process_name" {
					named[ev.PID] = true
				}
			}
			for _, ev := range doc.TraceEvents {
				if tc.runtime == "tcp" && !named[ev.PID] {
					t.Fatalf("pid %d has no process_name metadata (named: %v)", ev.PID, named)
				}
			}
		})
	}
}

// TestOfflineTraceEqualsLive: a traced GNMF iteration on TCP loopback with a
// journal sink, read back with obs.ReadEvents and rendered with
// obs.ChromeTrace, gives the bytes Session.WriteTrace writes. At block size
// 2 a task of the iteration records more sub-spans than one task event
// carries, so its attempt is journaled in parts, and no line nears the
// reader's 1 MiB cap.
func TestOfflineTraceEqualsLive(t *testing.T) {
	var sink bytes.Buffer
	cfg := LocalClusterConfig()
	cfg.BlockSize = 2
	cfg.Runtime, cfg.Workers = "tcp", startWorkers(t, 2)
	sess, err := NewSession(cfg, WithTracing(), WithJournal(NewJournal(0, &sink)))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.RandomSparse("X", 256, 128, 0.1, 1, 5, 1)
	sess.RandomDense("U", 4, 128, 0.2, 0.8, 2)
	sess.RandomDense("V", 256, 4, 0.2, 0.8, 3)
	if _, err := sess.Query(gnmfScript); err != nil {
		t.Fatal(err)
	}
	var live bytes.Buffer
	if err := sess.WriteTrace(&live); err != nil {
		t.Fatal(err)
	}
	if err := sess.Journal().Flush(); err != nil {
		t.Fatal(err)
	}
	for i, line := range bytes.Split(sink.Bytes(), []byte("\n")) {
		if len(line) >= 1<<19 {
			t.Fatalf("journal line %d is %d bytes, within 2x of ReadEvents' 1 MiB cap", i, len(line))
		}
	}
	events, err := obs.ReadEvents(&sink)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(events, func(e obs.Event) bool { return e.Part > 0 }) {
		t.Fatal("no task attempt was split over several task events; the iteration no longer exercises the split")
	}
	offline, err := obs.ChromeTrace(events)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(offline, live.Bytes()) {
		t.Fatalf("offline rendering (%d bytes) differs from the live trace (%d bytes)", len(offline), live.Len())
	}
}

// TestTraceCoversEveryQuerySinceReset: the trace holds every query since the
// last ResetObservations however small the journal's ring, and a reset
// empties it.
func TestTraceCoversEveryQuerySinceReset(t *testing.T) {
	cfg := LocalClusterConfig()
	cfg.BlockSize = 16
	sess, err := NewSession(cfg, WithTracing(), WithJournal(NewJournal(1, nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	bindTestInputs(sess)
	plans := func() int {
		n := 0
		for _, sp := range traceSpans(t, sess) {
			if sp.Cat == "plan" {
				n++
			}
		}
		return n
	}
	for range 3 {
		if _, err := sess.Query(obsTestScript); err != nil {
			t.Fatal(err)
		}
	}
	if n := plans(); n != 3 {
		t.Fatalf("trace covers %d queries, want all 3 (journal ring: 1 event)", n)
	}
	sess.ResetObservations()
	if _, err := sess.Query(obsTestScript); err != nil {
		t.Fatal(err)
	}
	if n := plans(); n != 1 {
		t.Fatalf("trace covers %d queries after a reset and one query, want 1", n)
	}
}

// layerMetrics computes the benchmark's journal-derived per-layer metrics
// over a run's events, as totals over the run (the table in
// docs/OPERATIONS.md): seconds between events of one query, the planned
// event's timings and the stage_end flight records' counters.
func layerMetrics(events []obs.Event) map[string]float64 {
	m := map[string]float64{}
	var planned, hits float64
	var execute, stages int64 // nanoseconds
	var wire, extra int64     // bytes
	startAt := map[string]int64{}
	for _, e := range events {
		switch e.Type {
		case obs.EvPlanned:
			planned++
			m["lang.parse_s"] += e.ParseSeconds
			if e.PlanCacheHit {
				hits++
				m["plancache.lookup_s"] += e.CompileSeconds
			} else {
				m["core.compile_s"] += e.CompileSeconds
			}
			startAt[e.Query] = e.UnixNano
		case obs.EvDone:
			execute += e.UnixNano - startAt[e.Query]
		case obs.EvStageStart:
			startAt[e.Query+"/"+e.Stage] = e.UnixNano
		case obs.EvStageEnd:
			stages += e.UnixNano - startAt[e.Query+"/"+e.Stage]
			f := e.Flight.Meas
			m["exec.stages"]++
			m["exec.tasks"] += float64(e.Tasks)
			m["remote.fetch_wait_s"] += f.FetchSeconds
			m["remote.task_s"] += f.TaskSeconds
			m["remote.fetch_calls"] += float64(f.FetchCalls)
			m["remote.fetch_serve_s"] += f.FetchServeSeconds
			m["remote.collect_s"] += f.CollectSeconds
			wire += f.TotalCommBytes() + f.ExtraWireBytes
			extra += f.ExtraWireBytes
			m["remote.steal_tasks"] += float64(f.StealTasks)
		case obs.EvTask:
			if e.Part == 0 {
				m["cluster.task_busy_s"] += e.Task.End.Sub(e.Task.Start).Seconds()
			}
		}
	}
	m["remote.wire_mb"], m["remote.extra_wire_mb"] = float64(wire)/1e6, float64(extra)/1e6
	m["plancache.hit_ratio"] = hits / planned
	m["cluster.stage_s"] = float64(stages) / 1e9
	m["exec.driver_self_s"] = float64(execute-stages) / 1e9
	return m
}

// TestJournalCarriesLayerMetrics: one traced WithJournal run of three GNMF
// iterations, with the plan cache on, carries every per-layer metric of the
// benchmark that is neither a probe, a client-side figure nor a dead pin
// (blockcache.*: there is no block cache).
// Its counts equal the runtime's own (LastStats, summed over the queries);
// only TCP serves fetches.
func TestJournalCarriesLayerMetrics(t *testing.T) {
	for _, runtime := range []string{"sim", "tcp"} {
		t.Run(runtime, func(t *testing.T) {
			var sink bytes.Buffer
			cfg := LocalClusterConfig()
			cfg.BlockSize = 16
			if cfg.Runtime = runtime; runtime == "tcp" {
				cfg.Workers = startWorkers(t, 2)
			}
			sess, err := NewSession(cfg, WithTracing(), WithJournal(NewJournal(0, &sink)),
				WithPlanCache(NewPlanCache(8)))
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			bindGNMFInputs(sess)
			var total Stats
			for range 3 {
				out, err := sess.Query(gnmfScript)
				if err != nil {
					t.Fatal(err)
				}
				sess.Bind("U", out["U2"])
				sess.Bind("V", out["V2"])
				s := sess.LastStats()
				total.Stages += s.Stages
				total.Tasks += s.Tasks
				total.ConsolidationBytes += s.ConsolidationBytes
				total.AggregationBytes += s.AggregationBytes
				total.ExtraWireBytes += s.ExtraWireBytes
				total.StealTasks += s.StealTasks
			}
			if err := sess.Journal().Flush(); err != nil {
				t.Fatal(err)
			}
			events, err := obs.ReadEvents(&sink)
			if err != nil {
				t.Fatal(err)
			}
			m := layerMetrics(events)
			for _, name := range []string{"lang.parse_s", "core.compile_s", "plancache.hit_ratio", "exec.stages",
				"exec.tasks", "exec.driver_self_s", "cluster.stage_s", "cluster.task_busy_s", "remote.fetch_wait_s",
				"remote.task_s", "remote.fetch_calls", "remote.fetch_serve_s", "remote.collect_s", "remote.wire_mb",
				"remote.extra_wire_mb", "remote.steal_tasks"} {
				if v, ok := m[name]; !ok || math.IsNaN(v) {
					t.Errorf("%s: not computed (%v)", name, v)
				}
			}
			for name, want := range map[string]float64{
				"exec.stages":          float64(total.Stages),
				"exec.tasks":           float64(total.Tasks),
				"remote.wire_mb":       float64(total.ConsolidationBytes+total.AggregationBytes+total.ExtraWireBytes) / 1e6,
				"remote.extra_wire_mb": float64(total.ExtraWireBytes) / 1e6,
				"remote.steal_tasks":   float64(total.StealTasks),
				"plancache.hit_ratio":  2.0 / 3,
			} {
				if got := m[name]; got != want {
					t.Errorf("%s = %v from the journal, the runtime says %v", name, got, want)
				}
			}
			for _, name := range []string{"lang.parse_s", "core.compile_s", "plancache.lookup_s", "cluster.stage_s", "cluster.task_busy_s"} {
				if m[name] <= 0 {
					t.Errorf("%s = %v, want positive", name, m[name])
				}
			}
			if tcp := runtime == "tcp"; tcp != (m["remote.fetch_calls"] > 0) || tcp != (m["remote.task_s"] > 0) {
				t.Errorf("fetch_calls = %v, task_s = %v on %s; want positive exactly on tcp", m["remote.fetch_calls"], m["remote.task_s"], runtime)
			}
			if runtime == "sim" && (m["remote.fetch_serve_s"] != 0 || m["remote.collect_s"] != 0) {
				t.Errorf("sim journals fetch_serve_s = %v, collect_s = %v; want zero", m["remote.fetch_serve_s"], m["remote.collect_s"])
			}
		})
	}
}

// TestWriteTraceFileUntracedCreatesNothing: an untraced session's
// WriteTraceFile fails without leaving a file behind.
func TestWriteTraceFileUntracedCreatesNothing(t *testing.T) {
	sess := newTestSession(t)
	defer sess.Close()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := sess.WriteTraceFile(path); err == nil {
		t.Fatal("WriteTraceFile on an untraced session succeeded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("untraced WriteTraceFile left %s behind (stat: %v)", path, err)
	}
}
