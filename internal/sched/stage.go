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

	Tenant string // whose turn the stage's lanes take their tasks on
	Weight int

	// Retries is how many times a failed task is re-attempted. Inject, when
	// non-nil, is consulted before each attempt; true fails the attempt with
	// ErrInjected without running it.
	Retries int
	Inject  func(taskID, attempt int) bool
}

// Run executes st; the runtime supplies only run, one attempt of a task on a
// node. Each task is queued at its home; every live node drains its queue
// with up to s's lanes per node (taskQueues, which also steals). A lane
// takes a task, and with it one of its node's lanes, on st's tenant's turn
// (dispatch), holds both until it asks for its next task, and attempts the
// task up to 1+st.Retries times. After the first task that fails for good no
// further task starts. Run returns once every started task has ended, with
// the number of tasks run away from their home and the first error, wrapped
// with the stage name and task ID.
func (s *Scheduler) Run(st Stage, run func(node, taskID, attempt int) error) (steals int64, err error) {
	if !slices.Contains(st.Alive, true) {
		return 0, fmt.Errorf("stage %q: no live node", st.Name)
	}
	q := s.open(st.Alive, st.Tenant, st.Weight)
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
		for task, victim, ok := q.next(node, false); ok; task, victim, ok = q.next(node, true) {
			if victim != node {
				stolen.Add(1)
			}
			if !failed.Load() {
				if err := st.attempts(node, task, run); err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
					q.close()
				}
			}
		}
	}
	for node, live := range st.Alive {
		for l := 0; live && l < min(s.per, st.Tasks); l++ {
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

// taskQueues holds one stage's per-node task queues, filled before its lanes
// start, under the mutex of the gate its lanes take their tasks through. A
// lane takes its own queue front to back, and only while its node has a
// lane free. Stealing has one rule: a lane whose queue is empty steals only
// from a node whose lanes are all busy, because only then is a queued task
// stuck behind a busy home — so a stage that has the cluster to itself and
// no more tasks than lanes runs every task at its home, and a straggler's
// backlog is still taken. A node's lanes are busy with whatever stage runs
// on them. A steal takes the TAIL of the longest such queue: the task
// farthest from running there.
type taskQueues struct {
	s      *Scheduler
	tenant *tenant
	seq    uint64 // the gate's count of stages opened before this one
	queues [][]int
	parked []int // per node: this stage's lanes waiting in next
	// grants, per live node, carries what dispatch hands the node's parked
	// lanes. It buffers one grant per lane of the node, so dispatch never
	// blocks sending under the gate's mutex.
	grants []chan grant
	left   int // queued tasks
	closed bool
}

// grant is what a parked lane is handed: a task and the node whose queue it
// came from, or ok false when the stage has nothing more for it.
type grant struct {
	task, victim int
	ok           bool
}

// open returns the empty queues of a stage on the nodes alive names, whose
// lanes take their tasks on tenant's turn.
func (s *Scheduler) open(alive []bool, tenantName string, weight int) *taskQueues {
	n := len(alive)
	q := &taskQueues{s: s, queues: make([][]int, n), parked: make([]int, n), grants: make([]chan grant, n)}
	for v, live := range alive {
		if live {
			q.grants[v] = make(chan grant, s.per)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > len(s.busy) {
		s.busy = append(s.busy, make([]int, n-len(s.busy))...)
	}
	t := s.tenants[tenantName]
	if t == nil {
		t = &tenant{name: tenantName}
		s.tenants[tenantName] = t
	}
	t.weight = max(weight, 1)
	q.tenant, q.seq = t, s.stages
	s.stages++
	return q
}

// push appends a task to node n's queue. Call it before the lanes start.
func (q *taskQueues) push(n, task int) {
	q.queues[n] = append(q.queues[n], task)
	q.left++
}

// next releases the task a lane of node n holds, when held, and hands the
// lane its next task and the node whose queue it came from (n itself unless
// stolen), with one of n's lanes. While tasks are queued but none may be
// taken — n has no free lane, the gate is at its cap, each task is behind a
// node with a free lane, which will run it, or another tenant has the turn —
// the lane waits. next returns false once every task is taken or the queues
// are closed.
func (q *taskQueues) next(n int, held bool) (task, victim int, ok bool) {
	s := q.s
	s.mu.Lock()
	if held {
		q.release(n)
	}
	wait := !q.closed && q.left > 0
	if wait {
		q.parked[n]++
		if t := q.tenant; q.parked[n] == 1 {
			if len(t.waiting) == 0 {
				s.ring = append(s.ring, t)
			}
			i := len(t.waiting)
			for i > 0 && t.waiting[i-1].q.seq > q.seq {
				i--
			}
			t.waiting = slices.Insert(t.waiting, i, waiter{q, n})
		}
	}
	s.dispatch()
	s.mu.Unlock()
	if !wait {
		return 0, 0, false
	}
	g := <-q.grants[n]
	return g.task, g.victim, g.ok
}

// full reports whether node v's lanes are all busy. The caller holds the
// gate's mutex.
func (q *taskQueues) full(v int) bool { return q.s.busy[v] >= q.s.per }

// take is one attempt at a task for a lane of node n, with the gate's mutex
// held: nothing while n has no free lane, else the head of n's own queue,
// else the tail of the longest queue (ties to the lowest node) whose node is
// full. It takes one of n's lanes for the task.
func (q *taskQueues) take(n int) (task, victim int, ok bool) {
	if q.s.busy[n] >= q.s.per {
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
	q.s.busy[n]++
	q.s.running++
	q.left--
	return task, victim, true
}

// release ends the task a lane of node n holds, and frees n's lane. The
// caller holds the gate's mutex.
func (q *taskQueues) release(n int) {
	q.s.busy[n]--
	q.s.running--
}

// end hands each parked lane of the stage nothing: its tasks are all taken,
// or its queues closed. The caller holds the gate's mutex.
func (q *taskQueues) end() {
	t := q.tenant
	t.waiting = slices.DeleteFunc(t.waiting, func(w waiter) bool { return w.q == q })
	for n, k := range q.parked {
		for ; k > 0; k-- {
			q.grants[n] <- grant{}
		}
		q.parked[n] = 0
	}
	if len(t.waiting) == 0 {
		q.s.leave(t)
	}
}

// close makes every next return false (a failed stage runs nothing more).
func (q *taskQueues) close() {
	q.s.mu.Lock()
	q.closed = true
	q.end()
	q.s.mu.Unlock()
}
