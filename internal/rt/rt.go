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
// What the two backends do NOT share is the wire and the per-worker task
// queues: only the TCP coordinator moves blocks and queues tasks at their
// home workers, so work-stealing exists once, in rt/remote, and cluster.Stats'
// steal and phase-seconds counters are zero under simulation. Nothing
// prefetches on either backend. The conformance tests in this package pin
// everything else — flops, cache hits and misses, stage and task counts, span
// taxonomy, journal sequences — to be equal across backends.
package rt

import (
	"fuseme/internal/blockcache"
	"fuseme/internal/cluster"
	"fuseme/internal/matrix"
	"fuseme/internal/rt/spec"
)

// Runtime is the execution backend of a session: the in-process simulated
// cluster or a remote coordinator. Implementations accumulate cluster.Stats
// across stages and are used by one query execution at a time.
type Runtime interface {
	// Config returns the cluster shape (node count, slots, budgets) the
	// planners compile against.
	Config() cluster.Config
	// Stats returns a snapshot of accumulated metrics.
	Stats() cluster.Stats
	// LastStageStats returns the metrics of the most recent stage alone:
	// zero while a stage runs and for a stage that failed before folding.
	LastStageStats() cluster.Stats
	// ResetStats clears accumulated metrics.
	ResetStats()
	// CheckAdmission rejects an operator whose estimated per-task memory
	// exceeds the budget, wrapping cluster.ErrOutOfMemory.
	CheckAdmission(estTaskMemBytes int64, what string) error
	// RunStage executes numTasks tasks of one distributed stage in-process.
	RunStage(name string, numTasks int, fn func(t *cluster.Task) error) error
	// StageCacheGen returns the block-cache generation the next stage will
	// run at. The executor consults the caches — one per node/worker, for
	// loop-invariant inputs — when a stage descriptor advertises input
	// epochs. Blocks inserted at generation g are only hit-visible to stages
	// with a strictly greater generation.
	StageCacheGen() uint64
	// TaskCache returns the cache local to the node/worker that task taskID
	// runs on, or nil when caching is disabled or the cache is not reachable
	// in-process (the TCP coordinator's caches live inside remote workers).
	TaskCache(taskID int) *blockcache.Cache
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
}

// RunStage dispatches st to r: descriptor-capable runtimes execute the spec
// remotely, everything else runs the closure in-process.
func RunStage(r Runtime, st *Stage) error {
	if sr, ok := r.(SpecRunner); ok {
		return sr.RunSpecStage(st)
	}
	return r.RunStage(st.Name, st.NumTasks, st.Fn)
}
