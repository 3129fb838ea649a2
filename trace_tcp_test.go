package fuseme

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"fuseme/internal/obs"
)

// TestSessionTCPDistributedTrace runs an iterative query on a TCP session
// backed by two local workers with tracing and the flight recorder on, and
// checks the merged timeline: every worker contributes skew-corrected task
// spans (with fetch/kernel/send sub-spans) on its own labelled process track,
// and the flight recorder holds exactly one record per executed stage with
// both predicted and measured sides populated.
func TestSessionTCPDistributedTrace(t *testing.T) {
	var flight bytes.Buffer
	cfg := LocalClusterConfig()
	cfg.BlockSize = 16
	cfg.Runtime = "tcp"
	cfg.Workers = startWorkers(t, 2)
	sess, err := NewSession(cfg, WithTracing(), WithFlightRecorder(&flight))
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

	// Every worker shipped whole-task spans and the executor sub-spans; after
	// skew correction all of them sit inside the recorder's timeline with
	// non-negative timestamps and durations.
	taskSpans := map[int]int{}   // pid → cat "task" spans
	subSpans := map[string]int{} // sub-span name → count (worker pids only)
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.TS < 0 || ev.Dur < 0 {
			t.Fatalf("span %q has negative ts/dur: %+v", ev.Name, ev)
		}
		if ev.PID < obs.PIDWorkerBase {
			continue
		}
		switch ev.Cat {
		case "task":
			taskSpans[ev.PID]++
		case "taskop":
			subSpans[ev.Name]++
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

	// Flight recorder: exactly one record per executed stage, with the
	// prediction joined in for the planned operator and measurements filled.
	if err := sess.obs.Flight.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadFlightRecords(bytes.NewReader(flight.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
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
		if r.MeasWallSeconds > 0 && r.MeasFlops > 0 {
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

// TestSessionFlightRecorderSim checks the sim backend writes one flight
// record per stage too, and that a file handed to WithFlightRecorder is
// flushed — not closed — by Session.Close and reads back.
func TestSessionFlightRecorderSim(t *testing.T) {
	path := t.TempDir() + "/flight.jsonl"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := LocalClusterConfig()
	cfg.BlockSize = 16
	sess, err := NewSession(cfg, WithFlightRecorder(f))
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
		t.Fatalf("Session.Close closed the caller's flight file: %v", err)
	}
	recs, err := obs.ReadFlightFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != stages {
		t.Fatalf("flight holds %d records, runtime executed %d stages", len(recs), stages)
	}
	// The offline feedback loop: the file alone rebuilds a calibration report.
	rep := obs.CalibrationFromFlight(recs).Report(obs.ClusterModel{Nodes: cfg.Nodes, NetBandwidth: cfg.NetBandwidth, CompBandwidth: cfg.CompBandwidth})
	if len(rep.Rows) == 0 {
		t.Fatal("flight file rebuilt an empty calibration report")
	}
}

// TestFlightPeakMemIsPerStage: meas_peak_task_mem_bytes is the stage's own
// per-task high-water mark, not the query's running maximum — a small
// operator after a large one reports a strictly smaller peak, in the flight
// line and in the calibration row, on both runtimes.
func TestFlightPeakMemIsPerStage(t *testing.T) {
	for _, runtime := range []string{"sim", "tcp"} {
		t.Run(runtime, func(t *testing.T) {
			var flight bytes.Buffer
			cfg := LocalClusterConfig()
			cfg.BlockSize = 16
			if cfg.Runtime = runtime; runtime == "tcp" {
				cfg.Workers = startWorkers(t, 2)
			}
			sess, err := NewSession(cfg, WithFlightRecorder(&flight))
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
			recs, err := obs.ReadFlightRecords(&flight)
			if err != nil || len(recs) < 2 {
				t.Fatalf("flight records = %+v, %v; want one per stage of two operators", recs, err)
			}
			big, small := recs[0], recs[len(recs)-1]
			if big.Op == small.Op {
				t.Fatalf("first and last stage belong to one operator %q", big.Op)
			}
			if small.MeasPeakTaskMemBytes <= 0 || small.MeasPeakTaskMemBytes >= big.MeasPeakTaskMemBytes {
				t.Errorf("peak task memory: %q %d bytes, then %q %d bytes; want the later, smaller operator strictly below",
					big.Op, big.MeasPeakTaskMemBytes, small.Op, small.MeasPeakTaskMemBytes)
			}
			if got := sess.LastStats().PeakTaskMemBytes; got != big.MeasPeakTaskMemBytes {
				t.Errorf("query peak = %d, want the larger stage's %d", got, big.MeasPeakTaskMemBytes)
			}
			for _, row := range sess.CalibrationReport().Rows {
				if row.Op == small.Op && row.MeasPeakMem != small.MeasPeakTaskMemBytes {
					t.Errorf("calibration row %q peak = %d, flight line says %d", row.Op, row.MeasPeakMem, small.MeasPeakTaskMemBytes)
				}
			}
		})
	}
}
