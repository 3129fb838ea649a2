// Package rt defines the pluggable Runtime interface the execution layer
// runs on: what a runtime needs to run stages — the cluster shape it was
// opened with, its stats and stage execution. *cluster.Cluster implements it
// in-process; the TCP coordinator in rt/remote spreads the same stages
// across worker processes. Admission is not a runtime's: the executor checks
// each operator against the shape's budget (cluster.Config.CheckAdmission).
//
// A Stage has one task path on both. Its descriptor (Spec) is lowered once,
// when the plan is compiled, and a runtime must not modify it: a cached
// plan's stages run concurrently in several sessions. A task runs the
// descriptor's task entry, (*exec.Stage).RunTask, with the coordinator-side
// data serving its blocks (Stage.Fetch), and its result blocks are checked
// and folded in task order (Stage.Collect). Both backends schedule a stage on
// the one stage driver, sched.Run, and differ only in one attempt of a task:
// RunStage's in-process arm calls Stage.RunTask on the simulated cluster's
// lane, while the TCP coordinator ships the descriptor to a worker, which
// calls RunTask on its rebuilt copy, pulling blocks over the wire. Nothing
// prefetches across tasks on either; within a task a worker requests the
// blocks its next loop reads ahead of the loop. internal/exec/paths.go is
// the one place a Stage is built. Runtime.RunStage still takes a bare
// closure, which only the sim runs; the coordinator refuses it.
//
// A runtime runs stages concurrently: the plan executor dispatches every
// operator whose inputs are materialised at once, so the stages of
// independent operators overlap, on node lanes they share (sched.Scheduler).
// Nothing in a runtime is "the current stage": each stage's own
// cluster.Stats reaches its caller through the stage (Stage.Report), and so
// does each of its task attempts, through Stage.TaskDone on either runtime,
// as an obs.TaskSample carrying the task's own cluster.Stats; traced, the
// sample is the journal task event a trace renders (obs.ChromeTrace). The
// conformance tests in this package pin flops, cache hits and misses, stage
// and task counts, span taxonomy, journal sequences and injected retries to
// be equal across backends.
package rt

import (
	"sync"
	"sync/atomic"
	"time"

	"fuseme/internal/cluster"
	"fuseme/internal/matrix"
	"fuseme/internal/obs"
	"fuseme/internal/rt/spec"
)

// Runtime is the execution backend of a session: the in-process simulated
// cluster or a remote coordinator. Implementations accumulate cluster.Stats
// across stages, and run any number of stages at once.
type Runtime interface {
	// Config returns the cluster shape (node count, slots, budgets) the
	// planners compile against.
	Config() cluster.Config
	// Stats returns a snapshot of accumulated metrics.
	Stats() cluster.Stats
	// ResetStats clears accumulated metrics.
	ResetStats()
	// RunStage executes numTasks tasks of one distributed stage in-process;
	// a SpecRunner may refuse it.
	RunStage(name string, numTasks int, fn func(t *cluster.Task) error) error
	// Close releases backend resources (worker connections).
	Close() error
}

// SpecRunner is implemented by runtimes that ship a stage's descriptor to
// remote workers instead of running its tasks in-process.
type SpecRunner interface {
	RunSpecStage(st *Stage) error
}

// Stage is one distributed stage handed to a Runtime.
type Stage struct {
	Name     string
	NumTasks int

	// Spec is the serializable descriptor of the stage.
	Spec *spec.Stage

	// RunTask is the descriptor's task entry, (*exec.Stage).RunTask: one
	// attempt of task t, pulling blocks through fetch, naming the blocks its
	// next loop fetches to ahead (nil: no read-ahead) and handing its result
	// blocks to emit. A worker calls the same method on the descriptor it was
	// shipped; RunStage calls this one in-process.
	RunTask func(t *cluster.Task, fetch func(spec.BlockRef) (matrix.Mat, error),
		ahead func([]spec.BlockRef), emit func(kind uint8, bi, bj int, blk matrix.Mat) error) error

	// Fetch serves a task's block request from the coordinator-side data
	// (bound inputs, aggregated partials). A nil matrix with nil error is a
	// legitimate all-zero block.
	Fetch func(ref spec.BlockRef) (matrix.Mat, error)

	// Collect checks one task's result blocks and folds them into the stage
	// sinks, in task order. It keeps no list of blocks past its return.
	Collect func(taskID int, blocks []spec.OutBlock) error

	// Trace makes every task attempt record its body's sub-spans
	// (cluster.TaskTrace), in-process or on the worker that runs it.
	Trace bool

	// Report, when not nil, receives the stage's own stats once its tasks
	// are folded — before the run returns, and only if it got that far: a
	// stage that failed before folding reports nothing. It is a field of the
	// stage, not a value the runtime writes into it, so it survives a
	// runtime decorator that runs a copy of the stage.
	Report func(cluster.Stats)

	// TaskDone, when not nil, receives every task attempt the runtime ran
	// for this stage, failed ones included, as the attempt ends and on the
	// lane that ran it, attributed to that lane's node (a failed attempt to
	// none, -1).
	TaskDone func(obs.TaskSample)
}

// RunStage runs st on r. A SpecRunner runs it itself. Any other runtime runs
// each task attempt in-process (runLocal) on Runtime.RunStage, and the stats
// its tasks carry (cluster.Task.StageStats) are reported.
func RunStage(r Runtime, st *Stage) error {
	if sr, ok := r.(SpecRunner); ok {
		return sr.RunSpecStage(st)
	}
	start := time.Now()
	var stats atomic.Pointer[cluster.Stats]
	err := r.RunStage(st.Name, st.NumTasks, func(t *cluster.Task) error {
		stats.CompareAndSwap(nil, t.StageStats())
		return st.runLocal(t, start)
	})
	if s := stats.Load(); s != nil && st.Report != nil && (err == nil || s.Stages > 0) {
		st.Report(*s)
	}
	return err
}

// runLocal is one attempt of a task in-process, as a worker and the
// coordinator run it between them: RunTask with Fetch as its block source
// and no read-ahead, then its result blocks to Collect. The attempt goes to
// TaskDone, before Collect as on the coordinator, under the node whose lane
// ran it.
func (st *Stage) runLocal(t *cluster.Task, stageStart time.Time) error {
	buf := outBufs.Get().(*[]spec.OutBlock)
	blocks := (*buf)[:0]
	start := time.Now()
	if st.Trace {
		t.SetTrace(cluster.NewTaskTrace(start))
	}
	err := st.RunTask(t, st.Fetch, nil, func(kind uint8, bi, bj int, blk matrix.Mat) error {
		blocks = append(blocks, spec.OutBlock{Kind: kind, BI: bi, BJ: bj, Block: blk})
		return nil
	})
	if st.TaskDone != nil {
		worker := t.Node()
		if err != nil {
			worker = -1
		}
		st.TaskDone(obs.TaskSample{ID: t.ID, Worker: worker, StageStart: stageStart,
			Start: start, End: time.Now(), Spans: t.Trace().Spans(), Metrics: t.Metrics(), Err: err})
	}
	if err == nil {
		err = st.Collect(t.ID, blocks)
	}
	clear(blocks)
	*buf = blocks[:0]
	outBufs.Put(buf)
	return err
}

// outBufs recycles the result lists of in-process attempts, which Collect
// does not keep: a task of many small blocks (the NMF kernel's emits
// thousands) would otherwise grow a list per attempt.
var outBufs = sync.Pool{New: func() any { return new([]spec.OutBlock) }}
