package sched

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// ErrInjected is the failure of a task attempt that Stage.Inject claimed.
var ErrInjected = errors.New("injected task failure")

// Stage is one distributed stage as Run executes it.
type Stage struct {
	Name  string // quoted in the error of a failed task
	Tasks int
	// Alive has one entry per node. Task t's home is node t mod len(Alive);
	// a dead home falls forward to the next live node.
	Alive []bool
	Lanes int // lanes per live node: the cluster's TasksPerNode

	Tenant string // the tag of the stage's slot requests
	Weight int

	// Retries is how many times a failed task is re-attempted. Inject, when
	// non-nil, is consulted before each attempt; true fails the attempt with
	// ErrInjected without running it.
	Retries int
	Inject  func(taskID, attempt int) bool
}

// Run executes st; the runtime supplies only run, one attempt of a task on a
// node. Each task is queued at its home; every live node drains
// its queue with st.Lanes lanes (taskQueues, which also steals), and a lane
// holds a slot of s under st's tenant tag while it attempts its task up to
// 1+st.Retries times. After the first task that fails for good no further
// task starts. Run returns once every started task has ended, with the number
// of tasks run away from their home and the first error, wrapped with the
// stage name and task ID.
func (s *Scheduler) Run(st Stage, run func(node, taskID, attempt int) error) (steals int64, err error) {
	if !slices.Contains(st.Alive, true) {
		return 0, fmt.Errorf("stage %q: no live node", st.Name)
	}
	q := newTaskQueues(len(st.Alive), max(st.Lanes, 1))
	for id := 0; id < st.Tasks; id++ {
		home := id % len(st.Alive)
		for !st.Alive[home] {
			home = (home + 1) % len(st.Alive)
		}
		q.push(home, id)
	}
	var (
		wg       sync.WaitGroup
		stolen   atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
	)
	lane := func(node int) {
		defer wg.Done()
		// The task is taken before the slot, so a lane waiting in next for a
		// steal never holds a slot a home lane needs.
		for task, victim, ok := q.next(node); ok; task, victim, ok = q.next(node) {
			if victim != node {
				stolen.Add(1)
			}
			release := s.Acquire(st.Tenant, st.Weight)
			if !failed.Load() {
				if err := st.attempts(node, task, run); err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
					q.close()
				}
			}
			release()
			q.done(node)
		}
	}
	for node, live := range st.Alive {
		for l := 0; live && l < min(q.lanes, st.Tasks); l++ {
			wg.Add(1)
			go lane(node)
		}
	}
	wg.Wait()
	return stolen.Load(), firstErr
}

// attempts runs task on node until an attempt succeeds or 1+Retries have
// failed, returning the last failure.
func (st *Stage) attempts(node, task int, run func(node, taskID, attempt int) error) error {
	var err error
	for attempt := 0; attempt <= st.Retries; attempt++ {
		if st.Inject != nil && st.Inject(task, attempt) {
			err = ErrInjected
		} else if err = run(node, task, attempt); err == nil {
			return nil
		}
	}
	return fmt.Errorf("stage %q task %d: %w", st.Name, task, err)
}

// taskQueues holds one stage's per-node task queues, filled before the lanes
// start, under one mutex. A lane takes its own queue front to back. Stealing
// has one rule: a lane whose queue is empty steals only from a node whose
// lanes all hold a task, because only then is a queued task stuck behind a
// busy home — so a stage with no more tasks than lanes runs every task at its
// home, and a straggler's backlog is still taken. A steal takes the TAIL of
// the longest such queue: the task farthest from running there.
type taskQueues struct {
	mu     sync.Mutex
	wake   sync.Cond // broadcast when a node's lanes become all busy, the last task is taken, or the queues close
	queues [][]int
	busy   []int // per node: lanes holding a task
	lanes  int   // lanes per node
	left   int   // queued tasks
	closed bool
}

func newTaskQueues(nodes, lanes int) *taskQueues {
	q := &taskQueues{queues: make([][]int, nodes), busy: make([]int, nodes), lanes: lanes}
	q.wake.L = &q.mu
	return q
}

// push appends a task to node n's queue.
func (q *taskQueues) push(n, task int) {
	q.mu.Lock()
	q.queues[n] = append(q.queues[n], task)
	q.left++
	q.mu.Unlock()
}

// next hands a lane of node n its next task and the node whose queue it came
// from (n itself unless stolen). While tasks are queued but none may be
// taken — each is behind a node with a free lane, which will run it — next
// waits. It returns false once every task is taken or the queues are
// closed. The lane holds the task until it calls done.
func (q *taskQueues) next(n int) (task, victim int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.closed && q.left > 0 {
		if task, victim, ok = q.take(n); ok {
			return task, victim, true
		}
		q.wake.Wait()
	}
	return 0, 0, false
}

// take is one attempt of next, with q.mu held: the head of n's own queue,
// else the tail of the longest queue (ties to the lowest node) whose node has
// every lane busy.
func (q *taskQueues) take(n int) (task, victim int, ok bool) {
	victim = n
	if len(q.queues[n]) == 0 {
		victim = -1
		for v, tasks := range q.queues {
			if v != n && q.busy[v] == q.lanes && len(tasks) > 0 && (victim < 0 || len(tasks) > len(q.queues[victim])) {
				victim = v
			}
		}
		if victim < 0 {
			return 0, 0, false
		}
	}
	tasks := q.queues[victim]
	if victim == n {
		task, q.queues[n] = tasks[0], tasks[1:]
	} else {
		task, q.queues[victim] = tasks[len(tasks)-1], tasks[:len(tasks)-1]
	}
	q.busy[n]++
	q.left--
	if q.busy[n] == q.lanes || q.left == 0 {
		q.wake.Broadcast() // n's queue may be stealable now, or nothing is left
	}
	return task, victim, true
}

// done releases the task a lane of node n took.
func (q *taskQueues) done(n int) {
	q.mu.Lock()
	q.busy[n]--
	q.mu.Unlock()
}

// close makes every next return false (a failed stage runs nothing more).
func (q *taskQueues) close() {
	q.mu.Lock()
	q.closed = true
	q.wake.Broadcast()
	q.mu.Unlock()
}
