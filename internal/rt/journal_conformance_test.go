package rt_test

import (
	"reflect"
	"slices"
	"testing"

	"fuseme/internal/block"
	"fuseme/internal/core"
	"fuseme/internal/obs"
	"fuseme/internal/rt"
	"fuseme/internal/workloads"
)

// normFlight is the deterministic slice of a stage_end's flight record: the
// planner's choices and predictions plus the execution counters both backends
// must agree on exactly. Timings, wire-byte volumes (metered vs encoded) and
// steal counts (which follow each backend's timing, and here its lane count)
// are legitimately backend-specific and excluded.
type normFlight struct {
	Stage, Op, Kind string
	P, Q, R, Tasks  int
	PredNetBytes    int64
	PredComFlops    int64
	PredMemBytes    int64
	MeasFlops       int64
}

// normEvent is one journal event with every timing-, worker- and
// volume-dependent field dropped: what remains is the lifecycle sequence the
// conformance contract covers.
type normEvent struct {
	Type      obs.EventType
	Stage, Op string
	Tasks     int
	Error     string
	Flight    *normFlight
}

// normalize reduces a journal to its backend-independent shape. Task events
// are left out: tasks end in a backend's own order (taskStages compares them).
func normalize(events []obs.Event) []normEvent {
	out := make([]normEvent, 0, len(events))
	for _, e := range events {
		if e.Type == obs.EvTask {
			continue
		}
		n := normEvent{Type: e.Type, Stage: e.Stage, Op: e.Op, Tasks: e.Tasks, Error: e.Error}
		if f := e.Flight; f != nil {
			n.Flight = &normFlight{
				Stage: f.Stage, Op: f.Op, Kind: f.Kind,
				P: f.P, Q: f.Q, R: f.R, Tasks: f.Tasks,
				PredNetBytes: f.PredNetBytes, PredComFlops: f.PredComFlops,
				PredMemBytes: f.PredMemBytes, MeasFlops: f.Meas.Flops,
			}
		}
		out = append(out, n)
	}
	return out
}

// taskStages maps each stage a journal's task events name to the sorted IDs
// of its attempts, one per attempt (the first part of a split one).
func taskStages(events []obs.Event) map[string][]int {
	out := map[string][]int{}
	for _, e := range events {
		if e.Type == obs.EvTask && e.Part == 0 {
			out[e.Stage] = append(out[e.Stage], e.Task.ID)
		}
	}
	for _, ids := range out {
		slices.Sort(ids)
	}
	return out
}

// taskTally is what Obs.TaskDone emitted over a run: both backends report
// every task through that one hook, so the counts must be equal.
type taskTally struct {
	TasksTotal, TaskSeconds, QueueSeconds int64 // fuseme_tasks_total, histogram counts
	SkewSamples                           int   // task samples folded into stage_end skews
}

// runJournaledGNMF executes the GNMF update graph twice on one backend,
// journaling both traced runs, and returns each run's normalized event
// sequence, the per-task telemetry tally of both and the first run's
// taskStages.
func runJournaledGNMF(t *testing.T, rtm rt.Runtime) (first, second []normEvent, tally taskTally, tasks map[string][]int) {
	t.Helper()
	const users, items, k = 96, 80, 8
	inputs := map[string]*block.Matrix{
		"X": block.RandomSparse(users, items, 16, 0.05, 1, 5, 1),
		"U": block.RandomDense(k, items, 16, 0.5, 1.5, 2),
		"V": block.RandomDense(users, k, 16, 0.5, 1.5, 3),
	}
	g := workloads.GNMF(users, items, k, inputs["X"].Density())
	j := obs.NewJournal(0, nil)
	o := &obs.Obs{Trace: true, Metrics: obs.NewRegistry()}
	if co, ok := rtm.(interface{ SetObs(*obs.Registry) }); ok {
		co.SetObs(o.Metrics)
	}
	for run, query := range []string{"q1", "q2"} {
		o.QLog = j.Begin(query, "")
		if _, _, err := core.RunObs(core.FuseME{}, g, rtm, inputs, o); err != nil {
			t.Fatalf("run %d: %v", run+1, err)
		}
	}
	snap := o.Metrics.Snapshot()
	tally = taskTally{TasksTotal: snap.Counters[obs.MTasksTotal],
		TaskSeconds:  snap.Histograms[obs.MTaskSeconds].Count,
		QueueSeconds: snap.Histograms[obs.MQueueSeconds].Count}
	for _, e := range append(j.Events("q1"), j.Events("q2")...) {
		if e.Skew != nil {
			tally.SkewSamples += e.Skew.Tasks
		}
	}
	return normalize(j.Events("q1")), normalize(j.Events("q2")), tally, taskStages(j.Events("q1"))
}

// TestRuntimeConformanceJournal requires the simulated cluster and the TCP
// backend to journal the same GNMF run as the same event sequence — same
// stage_start/stage_end alternation, same stage names, operators and task
// counts, and stage_end flight records whose deterministic fields (chosen
// (P,Q,R), predicted costs, flops) match exactly. Only
// timestamps, wall times, wire-byte volumes, steal counters and worker
// attribution may differ between backends. Every task event names its stage,
// and both backends journal the same task IDs under each stage name. Runs
// on pipelineBackends: the
// TCP side runs each worker's share of a stage on one lane, so it journals
// with queued tasks an idle lane may steal.
func TestRuntimeConformanceJournal(t *testing.T) {
	ctors := pipelineBackends()
	simFirst, simSecond, simTally, simTasks := runJournaledGNMF(t, ctors["sim"](t))
	if len(simFirst) == 0 {
		t.Fatal("sim journaled no events")
	}
	for stage, ids := range simTasks {
		if stage == "" || !slices.ContainsFunc(simFirst, func(e normEvent) bool { return e.Stage == stage }) {
			t.Fatalf("sim journaled tasks %v under stage %q, which no stage event names", ids, stage)
		}
	}
	if simTally.TasksTotal == 0 || simTally.SkewSamples != int(simTally.TasksTotal) {
		t.Fatalf("sim task tally = %+v, want one skew sample per counted task", simTally)
	}

	// Sanity on the sim sequence itself: strict start/end alternation and a
	// flight on every stage_end.
	depth := 0
	for i, e := range simFirst {
		switch e.Type {
		case obs.EvStageStart:
			depth++
		case obs.EvStageEnd:
			depth--
			if e.Flight == nil {
				t.Fatalf("event %d: stage_end without flight: %+v", i, e)
			}
		default:
			t.Fatalf("event %d: unexpected type %q at the runtime layer", i, e.Type)
		}
		if depth < 0 || depth > 1 {
			t.Fatalf("event %d: stage nesting depth %d", i, depth)
		}
	}
	if depth != 0 {
		t.Fatalf("unbalanced stage events (depth %d at end)", depth)
	}

	for name, open := range ctors {
		if name == "sim" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			first, second, tally, tasks := runJournaledGNMF(t, open(t))
			if tally != simTally {
				t.Errorf("per-task telemetry diverges: tcp %+v, sim %+v", tally, simTally)
			}
			if !reflect.DeepEqual(tasks, simTasks) {
				t.Errorf("task events name other stages:\n tcp %v\n sim %v", tasks, simTasks)
			}
			if !reflect.DeepEqual(first, simFirst) {
				t.Errorf("first run journals diverge:\n tcp %+v\n sim %+v", first, simFirst)
			}
			if !reflect.DeepEqual(second, simSecond) {
				t.Errorf("second run journals diverge:\n tcp %+v\n sim %+v", second, simSecond)
			}
		})
	}
}
