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
	// Nodes, when not nil, bounds each node's running tasks across every
	// stage in flight: a lane takes one of its node's lanes there for each
	// task it runs. Nil bounds a node by this stage's lanes alone.
	Nodes *NodeLanes
	// Pinned keeps the stage's tasks at their homes unless its own lanes
	// there are all busy (taskQueues): the tasks of a cached stage meet
	// their home's block cache whatever else runs.
	Pinned bool

	Tenant string // the tag of the stage's slot requests
	Weight int

	// Retries is how many times a failed task is re-attempted. Inject, when
	// non-nil, is consulted before each attempt; true fails the attempt with
	// ErrInjected without running it.
	Retries int
	Inject  func(taskID, attempt int) bool
}

// Run executes st; the runtime supplies only run, one attempt of a task on a
// node. Each task is queued at its home; every live node drains its queue
// with st.Lanes lanes (taskQueues, which also steals). A lane takes a task
// only while its node has a lane free in st.Nodes, holds that lane until the
// task ends, and holds a slot of s under st's tenant tag while it attempts
// the task up to 1+st.Retries times. After the first task that fails for
// good no further task starts. Run returns once every started task has
// ended, with the number of tasks run away from their home and the first
// error, wrapped with the stage name and task ID.
func (s *Scheduler) Run(st Stage, run func(node, taskID, attempt int) error) (steals int64, err error) {
	if !slices.Contains(st.Alive, true) {
		return 0, fmt.Errorf("stage %q: no live node", st.Name)
	}
	q := newTaskQueues(len(st.Alive), max(st.Lanes, 1))
	if st.Nodes != nil {
		q.share(st.Nodes, st.Pinned)
	}
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
		// The task, and with it the node's lane, is taken before the slot,
		// so a lane waiting in next for a task never holds a slot a running
		// lane needs.
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

// NodeLanes is the lanes of a cluster's nodes, shared by every stage in
// flight on it: however many stages overlap, a node runs at most its lane
// count of tasks at once. Nodes are numbered from 0. The task queues of all
// those stages work under its one mutex, so a lane a stage frees wakes the
// lanes of every other. Safe for concurrent use.
type NodeLanes struct {
	mu   sync.Mutex
	wake sync.Cond // broadcast when a lane is freed or taken, a task is taken, or a stage's queues close
	per  int       // lanes per node
	busy []int     // per node: lanes running a task, of any stage
}

// NewNodeLanes returns lanes of per tasks per node (at least one).
func NewNodeLanes(per int) *NodeLanes {
	l := &NodeLanes{per: max(per, 1)}
	l.wake.L = &l.mu
	return l
}

// taskQueues holds one stage's per-node task queues, filled before the lanes
// start, under the mutex of the nodes' lanes. A lane takes its own queue
// front to back, and only while its node has a lane free. Stealing has one
// rule: a lane whose queue is empty steals only from a node whose lanes are
// all busy, because only then is a queued task stuck behind a busy home — so
// a stage that has the cluster to itself and no more tasks than lanes runs
// every task at its home, and a straggler's backlog is still taken. A node's
// lanes are busy with whatever stage runs on them; a pinned stage — one
// whose tasks should meet their home's block cache — counts only its own
// tasks there, so other stages never draw its tasks away from home. A steal
// takes the TAIL of the longest such queue: the task farthest from running
// there.
type taskQueues struct {
	nodes  *NodeLanes
	queues [][]int
	busy   []int // per node: this stage's lanes holding a task
	lanes  int   // this stage's lanes per node
	pinned bool
	left   int // queued tasks
	closed bool
}

// newTaskQueues returns the queues of a stage on n nodes of lanes lanes
// each, which has the nodes to itself until share.
func newTaskQueues(n, lanes int) *taskQueues {
	nodes := NewNodeLanes(lanes)
	nodes.busy = make([]int, n)
	return &taskQueues{nodes: nodes, queues: make([][]int, n), busy: make([]int, n), lanes: lanes}
}

// share puts the stage on nodes shared with other stages (Stage.Nodes),
// pinned or not. Call it before the first push.
func (q *taskQueues) share(nodes *NodeLanes, pinned bool) {
	nodes.mu.Lock()
	if n := len(q.queues); n > len(nodes.busy) {
		nodes.busy = append(nodes.busy, make([]int, n-len(nodes.busy))...)
	}
	nodes.mu.Unlock()
	q.nodes, q.pinned = nodes, pinned
}

// push appends a task to node n's queue.
func (q *taskQueues) push(n, task int) {
	q.nodes.mu.Lock()
	q.queues[n] = append(q.queues[n], task)
	q.left++
	q.nodes.mu.Unlock()
}

// next hands a lane of node n its next task and the node whose queue it came
// from (n itself unless stolen), and takes a lane of n for it. While tasks
// are queued but none may be taken — n has no free lane, or each is behind a
// node with a free lane, which will run it — next waits. It returns false
// once every task is taken or the queues are closed. The lane holds the task
// until it calls done.
func (q *taskQueues) next(n int) (task, victim int, ok bool) {
	q.nodes.mu.Lock()
	defer q.nodes.mu.Unlock()
	for !q.closed && q.left > 0 {
		if task, victim, ok = q.take(n); ok {
			return task, victim, true
		}
		q.nodes.wake.Wait()
	}
	return 0, 0, false
}

// full reports whether node v's lanes are all busy, as this stage counts
// them. The caller holds the nodes' mutex.
func (q *taskQueues) full(v int) bool {
	if q.pinned {
		return q.busy[v] >= q.lanes
	}
	return q.nodes.busy[v] >= q.nodes.per
}

// take is one attempt of next, with the nodes' mutex held: nothing while n
// has no free lane, else the head of n's own queue, else the tail of the
// longest queue (ties to the lowest node) whose node is full.
func (q *taskQueues) take(n int) (task, victim int, ok bool) {
	if q.nodes.busy[n] >= q.nodes.per {
		return 0, 0, false
	}
	victim = n
	if len(q.queues[n]) == 0 {
		victim = -1
		for v, tasks := range q.queues {
			if v != n && len(tasks) > 0 && q.full(v) && (victim < 0 || len(tasks) > len(q.queues[victim])) {
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
	q.nodes.busy[n]++
	q.left--
	if q.full(n) || q.left == 0 {
		q.nodes.wake.Broadcast() // n's queue may be stealable now, or nothing is left
	}
	return task, victim, true
}

// done releases the task a lane of node n took, and n's lane with it.
func (q *taskQueues) done(n int) {
	q.nodes.mu.Lock()
	q.busy[n]--
	q.nodes.busy[n]--
	q.nodes.mu.Unlock()
	q.nodes.wake.Broadcast()
}

// close makes every next return false (a failed stage runs nothing more).
func (q *taskQueues) close() {
	q.nodes.mu.Lock()
	q.closed = true
	q.nodes.wake.Broadcast()
	q.nodes.mu.Unlock()
}
