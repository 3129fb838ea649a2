package exec

import (
	"slices"
	"sync"
	"sync/atomic"

	"fuseme/internal/matrix"
)

// taskArena holds the blocks a task builds for itself and drops when it ends:
// its retained member transposes, evalMatMul's leftT copies and its accT
// scratch. They are taken unzeroed from one matrix.Arena, which runStageTask
// takes from taskArenas for the task and resets when the task ends — the
// task's one reset point, failed and panicking attempts included. Metering
// does not see the arena: a block taken from it is charged to task memory
// exactly as a fresh one was.
//
// The escape rule: no block of the arena leaves its task. taken lists every
// block handed out since the last reset, and escape clones one of them before
// it is emitted (the simulated cluster's sinks keep the pointers they are
// handed). A task-local aggregate never holds one either: it keeps only what
// matrix.Aggregate and the aggregation's Combine build.
type taskArena struct {
	arena matrix.Arena
	taken []*matrix.Dense
}

// taskArenas recycles task arenas, each sized by the largest task it served.
var taskArenas = sync.Pool{New: func() any { return new(taskArena) }}

// resetHook, when set, is shown the blocks of every task arena just before
// the arena is reset; tests fill them with NaN so that a block read after its
// task ended shows in the result. Nil outside tests.
var resetHook atomic.Pointer[func(taken []*matrix.Dense)]

// dense returns a rows x cols block whose values are the caller's to write.
func (ta *taskArena) dense(rows, cols int) *matrix.Dense {
	d := ta.arena.Dense(rows, cols)
	ta.taken = append(ta.taken, d)
	return d
}

// escape returns blk as it may leave the task: a clone of it when it lies in
// the arena, else blk itself.
func (ta *taskArena) escape(blk matrix.Mat) matrix.Mat {
	if d, ok := blk.(*matrix.Dense); ok && slices.Contains(ta.taken, d) {
		return d.Clone()
	}
	return blk
}

// reset makes the arena's storage available to the next task.
func (ta *taskArena) reset() {
	if h := resetHook.Load(); h != nil {
		(*h)(ta.taken)
	}
	clear(ta.taken)
	ta.taken = ta.taken[:0]
	ta.arena.Reset()
}
