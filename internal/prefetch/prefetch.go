// Package prefetch implements record-and-replay input prefetching for
// pipelined stage execution. The first execution of a stage records, per
// task, the ordered block references the task actually pulled over the
// fetch path; on re-execution of the same stage shape (iterative workloads
// re-run identical stages every iteration) that history becomes the
// prefetch hint for the task's queue successor, so a worker can pull the
// next task's inputs while the current task's kernel runs.
//
// The one user is the TCP runtime (internal/rt/remote): the coordinator owns
// the History and ships hints with task assignments, the worker runs the
// Admit loop behind its kernel. The simulated cluster moves no bytes and has
// nothing to prefetch.
package prefetch

import (
	"fmt"
	"sync"

	"fuseme/internal/rt/spec"
)

// maxStages bounds the number of stage shapes the history retains; the
// oldest recorded stage is dropped first. Iterative workloads re-execute a
// handful of distinct stages, so the cap only matters for long-lived
// sessions running many different plans.
const maxStages = 256

// History stores, per stage shape, the ordered fetch list of every task's
// last successful execution. Safe for concurrent use.
type History struct {
	mu     sync.Mutex
	stages map[string][][]spec.BlockRef // stageKey → per-task ordered refs
	order  []string                     // FIFO of stage keys for eviction
}

// NewHistory returns an empty history.
func NewHistory() *History { return &History{stages: make(map[string][][]spec.BlockRef)} }

// stageKey identifies a stage shape: re-executions of the same compiled
// stage carry the same name (phase:label#nodeID) and task count, so their
// per-task fetch sets are identical run to run.
func stageKey(name string, numTasks int) string {
	return fmt.Sprintf("%s|%d", name, numTasks)
}

// Record stores the ordered fetch list of one successful task execution,
// replacing any earlier recording for the same task. A nil refs slice
// records "fetched nothing", which suppresses prefetch for that task.
func (h *History) Record(name string, numTasks, taskID int, refs []spec.BlockRef) {
	if h == nil || taskID < 0 || taskID >= numTasks {
		return
	}
	key := stageKey(name, numTasks)
	cp := make([]spec.BlockRef, len(refs))
	copy(cp, refs)
	h.mu.Lock()
	defer h.mu.Unlock()
	tasks, ok := h.stages[key]
	if !ok {
		if len(h.order) >= maxStages {
			delete(h.stages, h.order[0])
			h.order = h.order[1:]
		}
		tasks = make([][]spec.BlockRef, numTasks)
		h.stages[key] = tasks
		h.order = append(h.order, key)
	}
	tasks[taskID] = cp
}

// Lookup returns the recorded fetch list for one task of a stage shape, or
// nil when the stage (or task) has never completed. The returned slice must
// not be mutated.
func (h *History) Lookup(name string, numTasks, taskID int) []spec.BlockRef {
	if h == nil || taskID < 0 {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	tasks, ok := h.stages[stageKey(name, numTasks)]
	if !ok || taskID >= len(tasks) {
		return nil
	}
	return tasks[taskID]
}

// Stages returns how many stage shapes the history currently retains.
func (h *History) Stages() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.stages)
}

// Admit runs the deterministic prefetch admission loop over a hint list:
// refs are visited in recorded order, resident(ref) skips blocks already
// cached at the target, and fetch(ref) pulls an admitted block, returning
// its in-memory size. A ref is issued while the cumulative admitted bytes
// are strictly below budget (so one block may overflow the budget, never
// two). A failed fetch stops the loop — prefetch is best-effort and the
// task's own fetch path remains authoritative.
func Admit(refs []spec.BlockRef, budget int64, resident func(spec.BlockRef) bool, fetch func(spec.BlockRef) (int64, bool)) (blocks, bytes int64) {
	for _, ref := range refs {
		if bytes >= budget {
			break
		}
		if resident != nil && resident(ref) {
			continue
		}
		n, ok := fetch(ref)
		if !ok {
			break
		}
		blocks++
		bytes += n
	}
	return blocks, bytes
}
