package exec

import (
	"slices"
	"sync"
	"sync/atomic"

	"fuseme/internal/matrix"
)

// taskArena holds every dense block a task builds and does not emit as it
// is; only an emitted block goes on the heap (dest). The blocks are taken
// unzeroed — each kernel that fills one stores its first term — from one of
// two regions, by how long the task reads them:
//
//   - held: what the task holds across its output blocks — its retained
//     members (transposes, products that feed a product), evalMatMul's leftT
//     copies and its accT scratch. Reset when the task ends, the task's one
//     reset point, failed and panicking attempts included.
//   - block: what one output block builds and drops — the products a chain
//     only reads, streamed transposes, an aggregated root, the accT
//     write-back, the SDDMM's transposed right operands. Reset once the block
//     was emitted or folded (endBlock), so a task uses the same storage for
//     each of its output blocks.
//
// Metering does not see the arena: a block taken from it is charged to task
// memory exactly as a fresh one was.
//
// A held block is built only from held blocks and the task's inputs: a chain
// whose result is held reads its operands from the held region too, since it
// may hand one out as its result.
//
// The escape rule: no block of the arena leaves its task. Each region lists
// every block handed out since its last reset, and escape clones one of them
// before it is emitted (the simulated cluster's sinks keep the pointers they
// are handed). A task-local aggregate never holds one either: it keeps only
// what matrix.Aggregate and the aggregation's Combine build.
type taskArena struct {
	held, block region
}

// region is one lifetime of a task arena: its storage and the blocks taken
// from it since its last reset.
type region struct {
	arena matrix.Arena
	taken []*matrix.Dense
}

// taskArenas holds the idle task arenas, each sized by the largest task it
// served.
var taskArenas arenaList

// arenaList is a free list of task arenas. It creates an arena only when
// none is idle, so it never holds more than the most tasks that ran at once,
// and unlike a sync.Pool it keeps them across garbage collections and hands
// any idle one to any goroutine.
type arenaList struct {
	mu   sync.Mutex
	idle []*taskArena
}

// get returns an idle arena, or a new one.
func (l *arenaList) get() *taskArena {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.idle)
	if n == 0 {
		return new(taskArena)
	}
	ta := l.idle[n-1]
	l.idle[n-1] = nil
	l.idle = l.idle[:n-1]
	return ta
}

// put makes ta, reset, available to the next task.
func (l *arenaList) put(ta *taskArena) {
	l.mu.Lock()
	l.idle = append(l.idle, ta)
	l.mu.Unlock()
}

// resetHook, when set, is shown the blocks of every region just before the
// region is reset; tests fill them with NaN so that a block read after its
// lifetime ended shows in the result. Nil outside tests.
var resetHook atomic.Pointer[func(taken []*matrix.Dense)]

// dense returns a rows x cols block whose values are the caller's to write.
func (r *region) dense(rows, cols int) *matrix.Dense {
	d := r.arena.Dense(rows, cols)
	r.taken = append(r.taken, d)
	return d
}

// reset makes the region's storage available again.
func (r *region) reset() {
	if h := resetHook.Load(); h != nil {
		(*h)(r.taken)
	}
	clear(r.taken)
	r.taken = r.taken[:0]
	r.arena.Reset()
}

// escape returns blk as it may leave the task: a clone of it when it lies in
// the arena, else blk itself.
func (ta *taskArena) escape(blk matrix.Mat) matrix.Mat {
	if d, ok := blk.(*matrix.Dense); ok && (slices.Contains(ta.held.taken, d) || slices.Contains(ta.block.taken, d)) {
		return d.Clone()
	}
	return blk
}

// endBlock makes the block region's storage available to the next output
// block.
func (ta *taskArena) endBlock() { ta.block.reset() }

// reset makes the arena's storage available to the next task.
func (ta *taskArena) reset() {
	ta.block.reset()
	ta.held.reset()
}
