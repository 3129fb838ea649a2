package fuseme

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"fuseme/internal/obs"
	"fuseme/internal/rt/remote"
)

// stageFlights reads a journal's JSON lines and returns the flight records
// its stage_end events carry, in order.
func stageFlights(t *testing.T, r io.Reader) []obs.FlightRecord {
	t.Helper()
	events, err := obs.ReadEvents(r)
	if err != nil {
		t.Fatal(err)
	}
	var recs []obs.FlightRecord
	for _, e := range events {
		if e.Type == obs.EvStageEnd {
			if e.Flight == nil {
				t.Fatalf("stage_end without a flight record: %+v", e)
			}
			recs = append(recs, *e.Flight)
		}
	}
	return recs
}

// TestSessionTCPDistributedTrace runs an iterative query on a TCP session
// backed by two local workers with tracing and the journal on, and checks
// the merged timeline: every worker contributes task spans (with
// fetch/kernel/send sub-spans) on its own labelled process track, each
// placed inside the coordinator's dispatch window of its task, and the
// journal holds exactly one stage_end flight record per executed stage with
// both predicted and measured sides populated. The workers stall every task
// body, so the body dominates its window.
func TestSessionTCPDistributedTrace(t *testing.T) {
	const delay = 5 * time.Millisecond
	var journal bytes.Buffer
	cfg := LocalClusterConfig()
	cfg.BlockSize = 16
	cfg.Runtime = "tcp"
	for range 2 {
		w, err := remote.NewWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		w.SetTaskDelay(delay)
		cfg.Workers = append(cfg.Workers, w.Addr())
	}
	sess, err := NewSession(cfg, WithTracing(), WithJournal(NewJournal(0, &journal)))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	bindTestInputs(sess)

	if _, err := sess.Query("O = X * log(U %*% t(V) + 1e-3)"); err != nil {
		t.Fatal(err)
	}
	stages := sess.LastStats().Stages

	var trace bytes.Buffer
	if err := sess.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	// One labelled process track per worker plus the coordinator's.
	procs := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procs[ev.PID] = true
		}
	}
	for _, pid := range []int{obs.PIDLocal, obs.PIDWorkerBase, obs.PIDWorkerBase + 1} {
		if !procs[pid] {
			t.Errorf("no process_name metadata for pid %d (have %v)", pid, procs)
		}
	}

	// Every worker's task bodies and their executor sub-spans sit inside the
	// recorder's timeline with non-negative timestamps and durations: each
	// sub-span inside a task span on its track, each task span centred inside
	// the coordinator's sched span of the same task.
	taskSpans := map[int]int{}   // pid → cat "task" spans
	subSpans := map[string]int{} // sub-span name → count (worker pids only)
	var sched, bodies, ops []obs.TraceEvent
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.TS < 0 || ev.Dur < 0 {
			t.Fatalf("span %q has negative ts/dur: %+v", ev.Name, ev)
		}
		if ev.PID < obs.PIDWorkerBase {
			if ev.Cat == "sched" {
				sched = append(sched, ev)
			}
			continue
		}
		switch ev.Cat {
		case "task":
			taskSpans[ev.PID]++
			bodies = append(bodies, ev)
		case "taskop":
			subSpans[ev.Name]++
			ops = append(ops, ev)
		}
	}
	// inside reports whether span in lies within span out, to the
	// nanosecond (timestamps are float microseconds).
	inside := func(in, out obs.TraceEvent) bool {
		return in.TS >= out.TS-1e-3 && in.TS+in.Dur <= out.TS+out.Dur+1e-3
	}
	centred := func(in, out obs.TraceEvent) bool {
		return math.Abs((in.TS-out.TS)-(out.TS+out.Dur-in.TS-in.Dur)) <= 2e-3
	}
	for _, body := range bodies {
		if body.Dur < float64(delay.Microseconds()) {
			t.Errorf("task span %+v is shorter than the injected %v stall", body, delay)
		}
		if !slices.ContainsFunc(sched, func(s obs.TraceEvent) bool { return s.Name == body.Name && inside(body, s) && centred(body, s) }) {
			t.Errorf("task span %+v on pid %d lies centred in no sched span of %q", body, body.PID, body.Name)
		}
	}
	for _, op := range ops {
		if !slices.ContainsFunc(bodies, func(b obs.TraceEvent) bool { return b.PID == op.PID && b.TID == op.TID && inside(op, b) }) {
			t.Errorf("sub-span %+v lies in no task span on its track", op)
		}
	}
	for _, pid := range []int{obs.PIDWorkerBase, obs.PIDWorkerBase + 1} {
		if taskSpans[pid] == 0 {
			t.Errorf("worker pid %d contributed no task spans (got %v)", pid, taskSpans)
		}
	}
	for _, name := range []string{"fetch", "kernel", "send"} {
		if subSpans[name] == 0 {
			t.Errorf("no %q sub-spans from workers (got %v)", name, subSpans)
		}
	}

	// Journal: exactly one stage_end flight record per executed stage, with
	// the prediction joined in for the planned operator and measurements
	// filled.
	if err := sess.Journal().Flush(); err != nil {
		t.Fatal(err)
	}
	recs := stageFlights(t, &journal)
	if len(recs) != stages {
		t.Fatalf("flight holds %d records, runtime executed %d stages", len(recs), stages)
	}
	var predicted, measured bool
	for _, r := range recs {
		if r.Stage == "" || r.Op == "" || r.Tasks == 0 {
			t.Errorf("flight record missing identity fields: %+v", r)
		}
		if r.PredNetBytes > 0 && r.P > 0 {
			predicted = true
		}
		if r.Meas.SimSeconds > 0 && r.Meas.Flops > 0 {
			measured = true
		}
	}
	if !predicted {
		t.Error("no flight record carries a planner prediction")
	}
	if !measured {
		t.Error("no flight record carries measurements")
	}
}

// TestSessionFlightRecorderSim checks the sim backend journals one flight
// record per stage too, and that a file handed to WithJournal is flushed —
// not closed — by Session.Close and reads back.
func TestSessionFlightRecorderSim(t *testing.T) {
	path := t.TempDir() + "/journal.jsonl"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := LocalClusterConfig()
	cfg.BlockSize = 16
	sess, err := NewSession(cfg, WithJournal(NewJournal(0, f)))
	if err != nil {
		t.Fatal(err)
	}
	bindTestInputs(sess)
	if _, err := sess.Query("l = sum((X - U %*% t(V))^2)"); err != nil {
		t.Fatal(err)
	}
	stages := sess.LastStats().Stages
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Session.Close closed the caller's journal file: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if recs := stageFlights(t, bytes.NewReader(b)); len(recs) != stages {
		t.Fatalf("journal holds %d flight records, runtime executed %d stages", len(recs), stages)
	}
	events, err := obs.ReadEvents(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	// The offline feedback loop: the file alone rebuilds the report the live
	// session renders.
	if got, want := obs.CalibrationFromEvents(events).Report(sess.cc).String(), sess.Report(); got != want {
		t.Fatalf("journal file rebuilt another calibration report:\n%s\nlive:\n%s", got, want)
	}
}

// TestFlightPeakMemIsPerStage: flight.meas.peak_task_mem_bytes is the stage's own
// per-task high-water mark, not the query's running maximum — a small
// operator after a large one reports a strictly smaller peak, in the
// stage_end flight record and in the calibration row, on both runtimes.
func TestFlightPeakMemIsPerStage(t *testing.T) {
	for _, runtime := range []string{"sim", "tcp"} {
		t.Run(runtime, func(t *testing.T) {
			var journal bytes.Buffer
			cfg := LocalClusterConfig()
			cfg.BlockSize = 16
			if cfg.Runtime = runtime; runtime == "tcp" {
				cfg.Workers = startWorkers(t, 2)
			}
			sess, err := NewSession(cfg, WithJournal(NewJournal(0, &journal)))
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			sess.RandomDense("A", 96, 96, 0, 1, 1)
			sess.RandomDense("W", 16, 16, 0, 1, 2)
			if _, err := sess.Query("B = A %*% A\nC = W %*% W"); err != nil {
				t.Fatal(err)
			}
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			recs := stageFlights(t, &journal)
			if len(recs) < 2 {
				t.Fatalf("flight records = %+v; want one per stage of two operators", recs)
			}
			big, small := recs[0], recs[len(recs)-1]
			if big.Op == small.Op {
				t.Fatalf("first and last stage belong to one operator %q", big.Op)
			}
			if small.Meas.PeakTaskMemBytes <= 0 || small.Meas.PeakTaskMemBytes >= big.Meas.PeakTaskMemBytes {
				t.Errorf("peak task memory: %q %d bytes, then %q %d bytes; want the later, smaller operator strictly below",
					big.Op, big.Meas.PeakTaskMemBytes, small.Op, small.Meas.PeakTaskMemBytes)
			}
			if got := sess.LastStats().PeakTaskMemBytes; got != big.Meas.PeakTaskMemBytes {
				t.Errorf("query peak = %d, want the larger stage's %d", got, big.Meas.PeakTaskMemBytes)
			}
			for _, row := range sess.CalibrationReport().Rows {
				if row.Op == small.Op && row.Meas.PeakTaskMemBytes != small.Meas.PeakTaskMemBytes {
					t.Errorf("calibration row %q peak = %d, flight line says %d", row.Op, row.Meas.PeakTaskMemBytes, small.Meas.PeakTaskMemBytes)
				}
			}
		})
	}
}
