package exec

import (
	"sync"

	"fuseme/internal/matrix"
	"fuseme/internal/rt/spec"
)

// This file is the executor side of pipelined stage execution: the
// task-index-ordered stage reducer, which streams partial aggregation while
// tasks are still running yet folds in one fixed order. Nothing prefetches
// across tasks (within one, blockSource.ahead names a loop's blocks);
// work-stealing, the other half of the pipeline, exists only where tasks
// queue per worker: in internal/rt/remote.

// taskEmit is one buffered result emission of a task.
type taskEmit struct {
	kind   uint8
	bi, bj int
	blk    matrix.Mat
}

// stageReducer folds stage results into the route sinks in strict task-index
// order, whatever order tasks complete in. Floating-point folds (OutAgg
// combines, OutPartial accumulation) are not associative bitwise, so fixing
// the fold order is what makes results independent of completion order —
// and both backends bit-identical to each other — by construction. OutFinal
// blocks land in disjoint output slots, so they route immediately,
// unbuffered.
//
// Each completed task folds the ready prefix [next, ...] eagerly,
// overlapping driver-side aggregation with still-running tasks; once every
// task of a successful stage has completed, everything has been folded.
type stageReducer struct {
	route emitFn

	mu   sync.Mutex
	buf  [][]taskEmit
	done []bool
	next int // lowest task index not yet folded
}

func newStageReducer(numTasks int, route emitFn) *stageReducer {
	return &stageReducer{
		route: route,
		buf:   make([][]taskEmit, numTasks),
		done:  make([]bool, numTasks),
	}
}

// emitFor returns the emit function for one task attempt: ordered kinds
// buffer, final blocks pass through.
func (r *stageReducer) emitFor(taskID int) emitFn {
	return func(kind uint8, bi, bj int, blk matrix.Mat) {
		if kind == spec.OutFinal {
			r.route(kind, bi, bj, blk)
			return
		}
		r.mu.Lock()
		r.buf[taskID] = append(r.buf[taskID], taskEmit{kind: kind, bi: bi, bj: bj, blk: blk})
		r.mu.Unlock()
	}
}

// reset discards a task's buffered emissions. Called at the start of every
// attempt, so a failed attempt's partial output is never folded — the retry
// contributes exactly one task's worth of results.
func (r *stageReducer) reset(taskID int) {
	r.mu.Lock()
	r.buf[taskID] = nil
	r.done[taskID] = false
	r.mu.Unlock()
}

// complete marks a task's results final and folds the contiguous completed
// prefix, in task order.
func (r *stageReducer) complete(taskID int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.done[taskID] = true
	for r.next < len(r.done) && r.done[r.next] {
		for _, e := range r.buf[r.next] {
			r.route(e.kind, e.bi, e.bj, e.blk)
		}
		r.buf[r.next] = nil
		r.next++
	}
}
