package exec

import (
	"sync"

	"fuseme/internal/rt/spec"
)

// This file is the executor side of pipelined stage execution: the
// task-index-ordered stage reducer, which streams partial aggregation while
// tasks are still running yet folds in one fixed order. Nothing prefetches
// across tasks (within one, source.ahead names a loop's blocks).
// Work-stealing, the other half of the pipeline, runs on both runtimes: both
// dispatch through their sched.Seat to sched.Run, where an idle lane takes a
// task queued on a busy node (cluster.Stats.StealTasks).

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
	buf  [][]spec.OutBlock
	done []bool
	next int // lowest task index not yet folded
}

func newStageReducer(numTasks int, route emitFn) *stageReducer {
	return &stageReducer{
		route: route,
		buf:   make([][]spec.OutBlock, numTasks),
		done:  make([]bool, numTasks),
	}
}

// collect folds the results of one task, handed over whole by its
// successful attempt (an attempt that fails hands over nothing, so a retried
// task contributes exactly one attempt's blocks): final blocks route at
// once, the ordered kinds are buffered under the task, and the task
// completes, folding the contiguous completed prefix in task order.
func (r *stageReducer) collect(taskID int, blocks []spec.OutBlock) {
	var ordered []spec.OutBlock
	for _, ob := range blocks {
		if ob.Kind == spec.OutFinal {
			r.route(ob.Kind, ob.BI, ob.BJ, ob.Block)
			continue
		}
		ordered = append(ordered, ob)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[taskID] = ordered
	r.done[taskID] = true
	for r.next < len(r.done) && r.done[r.next] {
		for _, e := range r.buf[r.next] {
			r.route(e.Kind, e.BI, e.BJ, e.Block)
		}
		r.buf[r.next] = nil
		r.next++
	}
}
