package remote

import "sync"

// taskQueues holds one stage's per-worker task queues. Tasks are pushed at
// stage start under home placement (taskID mod workers, matching the
// simulated backend's cache homes); each worker's lanes take their own
// queue front-to-back. All state is under one mutex — queues hold ints and
// a stage has at most a few thousand tasks, so fine-grained locking would
// buy nothing.
//
// Work-stealing has one rule: an idle lane steals only from a worker whose
// lanes all hold a task, because only then is a queued task stuck behind a
// busy home. A worker with a free lane runs its own queue, so a stage with
// no more tasks than lanes runs every task at its home, and a straggler's
// backlog is still taken. A steal takes the TAIL of the longest such queue:
// the task farthest from running there.
type taskQueues struct {
	mu     sync.Mutex
	wake   sync.Cond // broadcast when a worker's lanes become all busy, the last task is taken, or the queues close
	queues [][]int
	busy   []int // per worker: lanes holding a task
	lanes  int   // lanes per worker
	left   int   // queued tasks
	closed bool
}

func newTaskQueues(workers, lanes int) *taskQueues {
	q := &taskQueues{queues: make([][]int, workers), busy: make([]int, workers), lanes: lanes}
	q.wake.L = &q.mu
	return q
}

// push appends a task to worker w's queue.
func (q *taskQueues) push(w, task int) {
	q.mu.Lock()
	q.queues[w] = append(q.queues[w], task)
	q.left++
	q.mu.Unlock()
}

// next hands a lane of worker w its next task and the worker whose queue it
// came from (w itself unless stolen). While tasks are queued but none may be
// taken — each is behind a worker with a free lane, which will run it — next
// waits. It returns false once every task is taken or the queues are
// closed. The lane holds the task until it calls done.
func (q *taskQueues) next(w int) (task, victim int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.closed && q.left > 0 {
		if task, victim, ok = q.take(w); ok {
			return task, victim, true
		}
		q.wake.Wait()
	}
	return 0, 0, false
}

// take is one attempt of next, with q.mu held: the head of w's own queue,
// else the tail of the longest queue (ties to the lowest worker ID) whose
// worker has every lane busy.
func (q *taskQueues) take(w int) (task, victim int, ok bool) {
	victim = w
	if len(q.queues[w]) == 0 {
		victim = -1
		for v, tasks := range q.queues {
			if v != w && q.busy[v] == q.lanes && len(tasks) > 0 && (victim < 0 || len(tasks) > len(q.queues[victim])) {
				victim = v
			}
		}
		if victim < 0 {
			return 0, 0, false
		}
	}
	tasks := q.queues[victim]
	if victim == w {
		task, q.queues[w] = tasks[0], tasks[1:]
	} else {
		task, q.queues[victim] = tasks[len(tasks)-1], tasks[:len(tasks)-1]
	}
	q.busy[w]++
	q.left--
	if q.busy[w] == q.lanes || q.left == 0 {
		q.wake.Broadcast() // w's queue may be stealable now, or nothing is left
	}
	return task, victim, true
}

// done releases the task a lane of worker w took.
func (q *taskQueues) done(w int) {
	q.mu.Lock()
	q.busy[w]--
	q.mu.Unlock()
}

// close makes every next return false (a failed stage runs nothing more).
func (q *taskQueues) close() {
	q.mu.Lock()
	q.closed = true
	q.wake.Broadcast()
	q.mu.Unlock()
}
