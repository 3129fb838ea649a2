// Package rt defines the pluggable Runtime interface the execution layer
// runs on. The interface is extracted from the simulated cluster's surface
// (stage execution, admission control, stats), so *cluster.Cluster satisfies
// it unchanged; the TCP coordinator in rt/remote is the second
// implementation, spreading the same stages across worker processes.
//
// A Stage carries two equivalent representations of its work: Fn, the
// in-process closure (what the simulated cluster runs), and Spec, a
// serializable descriptor (what a remote backend ships to workers). Both
// drive the exact same executor task body, so the backends produce
// bit-identical results and the descriptor path is exercised even locally.
// The descriptor is lowered once, when the plan is compiled, and a runtime
// must not modify it: a cached plan's stages run concurrently in several
// sessions. Every stage the executor dispatches has both forms
// (internal/exec/paths.go is the one place a Stage is constructed); a
// runtime still accepts a bare closure through Runtime.RunStage.
//
// A runtime runs stages concurrently: the plan executor dispatches every
// operator whose inputs are materialised at once, so the stages of
// independent operators overlap, on node lanes they share (sched.NodeLanes).
// Nothing in a runtime is "the current stage": each stage's own
// cluster.Stats reaches its caller through the stage (Stage.Report), and so
// does each of its task attempts, as an obs.TaskSample carrying the task's
// own cluster.Stats: from the wrapped closure on the in-process path, from a
// descriptor runtime's dispatch lane through Stage.TaskDone; traced, the
// sample is the journal task event a trace renders (obs.ChromeTrace).
//
// Both backends also schedule a stage on the one stage driver, sched.Run, and
// differ only in one attempt of a task: a call of the task body in-process,
// or a task stream to a worker, which is where blocks cross a wire. Nothing
// prefetches across tasks on either; within a task a worker requests the
// blocks its next loop reads ahead of the loop. The conformance tests in this package pin flops,
// cache hits and misses, stage and task counts, span taxonomy, journal
// sequences and injected retries to be equal across backends.
package rt

import (
	"sync/atomic"

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
	// CheckAdmission rejects an operator whose estimated per-task memory
	// exceeds the budget, wrapping cluster.ErrOutOfMemory.
	CheckAdmission(estTaskMemBytes int64, what string) error
	// RunStage executes numTasks tasks of one distributed stage in-process.
	RunStage(name string, numTasks int, fn func(t *cluster.Task) error) error
	// Close releases backend resources (worker connections).
	Close() error
}

// SpecRunner is implemented by runtimes that can execute descriptor-based
// stages on remote workers instead of running the closure in-process.
type SpecRunner interface {
	RunSpecStage(st *Stage) error
}

// Stage is one distributed stage handed to a Runtime.
type Stage struct {
	Name     string
	NumTasks int

	// Fn is the in-process task body.
	Fn func(t *cluster.Task) error

	// Spec is the serializable descriptor of the same work.
	Spec *spec.Stage

	// Fetch serves a worker's block request from the coordinator-side data
	// (bound inputs, aggregated partials). A nil matrix with nil error is a
	// legitimate all-zero block.
	Fetch func(ref spec.BlockRef) (matrix.Mat, error)

	// Collect folds one remote task's result blocks into the stage sinks.
	Collect func(taskID int, blocks []spec.OutBlock) error

	// Report, when not nil, receives the stage's own stats once its tasks
	// are folded — before the run returns, and only if it got that far: a
	// stage that failed before folding reports nothing. It is a field of the
	// stage, not a value the runtime writes into it, so it survives a
	// runtime decorator that runs a copy of the stage.
	Report func(cluster.Stats)

	// TaskDone, when not nil, receives every task attempt a descriptor
	// runtime ran for this stage, failed ones included, as the attempt ends
	// and on the lane that ran it. The closure path never calls it: there Fn
	// is the task, and its caller wraps Fn to report the attempt.
	TaskDone func(obs.TaskSample)
}

// RunStage dispatches st to r: descriptor-capable runtimes execute the spec
// remotely and call st.Report themselves; everything else runs the closure
// in-process, and the stats its tasks carry (cluster.Task.StageStats) are
// reported.
func RunStage(r Runtime, st *Stage) error {
	if sr, ok := r.(SpecRunner); ok {
		return sr.RunSpecStage(st)
	}
	if st.Report == nil {
		return r.RunStage(st.Name, st.NumTasks, st.Fn)
	}
	var stats atomic.Pointer[cluster.Stats]
	err := r.RunStage(st.Name, st.NumTasks, func(t *cluster.Task) error {
		stats.CompareAndSwap(nil, t.StageStats())
		return st.Fn(t)
	})
	if s := stats.Load(); s != nil && (err == nil || s.Stages > 0) {
		st.Report(*s)
	}
	return err
}
