package remote

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// checkStealInterleaving drives one seeded random interleaving of lanes over
// the queue model — a lane takes a task or finishes the one it holds, in
// random order, so some workers straggle — and checks the exactly-once
// property (every task pushed under home placement is dispatched exactly
// once) and the steal rule: a lane takes its own queue's head while there is
// one, and steals only from a worker whose lanes all hold a task.
func checkStealInterleaving(seed int64, workers, lanes, numTasks int) error {
	rng := rand.New(rand.NewSource(seed))
	q := newTaskQueues(workers, lanes)
	for task := 0; task < numTasks; task++ {
		q.push(task%workers, task)
	}
	held := make([]int, workers) // lanes of each worker holding a task
	seen := make(map[int]bool, numTasks)
	for step := 0; len(seen) < numTasks; step++ {
		if step > 100*numTasks*workers*lanes {
			return fmt.Errorf("no progress: %d of %d tasks dispatched", len(seen), numTasks)
		}
		w := rng.Intn(workers)
		if held[w] > 0 && (held[w] == lanes || rng.Intn(3) == 0) {
			q.done(w)
			held[w]--
			continue
		}
		own := len(q.queues[w]) > 0
		busy := slices.Clone(q.busy)
		task, victim, ok := tryTake(q, w)
		if !ok {
			continue
		}
		held[w]++
		switch {
		case seen[task]:
			return fmt.Errorf("task %d dispatched twice", task)
		case own && victim != w:
			return fmt.Errorf("worker %d stole task %d from %d with its own queue non-empty", w, task, victim)
		case victim != w && busy[victim] != lanes:
			return fmt.Errorf("worker %d stole task %d from %d with %d of %d lanes busy", w, task, victim, busy[victim], lanes)
		}
		seen[task] = true
	}
	if _, _, ok := q.next(0); ok {
		return fmt.Errorf("next handed out a task after all %d were dispatched", numTasks)
	}
	return nil
}

// TestStealQueueExactlyOnceProperty runs many seeded interleavings; on
// failure it shrinks the scenario to the smallest worker/lane/task count
// that still fails under the same seed and reports it, so the failure
// replays deterministically.
func TestStealQueueExactlyOnceProperty(t *testing.T) {
	const (
		seeds    = 300
		workers  = 5
		lanes    = 2
		numTasks = 37
	)
	for seed := int64(0); seed < seeds; seed++ {
		err := checkStealInterleaving(seed, workers, lanes, numTasks)
		if err == nil {
			continue
		}
		// Shrink: smallest (workers, lanes, tasks) lexicographically that
		// still fails with this seed.
		sw, sl, st, serr := workers, lanes, numTasks, err
		for w := 2; w <= workers; w++ {
			for l := 1; l <= lanes; l++ {
				for n := 1; n <= numTasks; n++ {
					if e := checkStealInterleaving(seed, w, l, n); e != nil {
						sw, sl, st, serr = w, l, n, e
						goto shrunk
					}
				}
			}
		}
	shrunk:
		t.Fatalf("seed=%d workers=%d lanes=%d tasks=%d: %v (replay with checkStealInterleaving(%d, %d, %d, %d))",
			seed, sw, sl, st, serr, seed, sw, sl, st)
	}
}

// TestStealQueueConcurrentDrain hammers one taskQueues from real goroutine
// lanes — the shape the coordinator runs — and checks exactly-once under the
// race detector: each lane takes tasks until next reports nothing left.
func TestStealQueueConcurrentDrain(t *testing.T) {
	const (
		workers  = 4
		lanes    = 3 // lanes per worker, like TasksPerNode
		numTasks = 400
	)
	q := newTaskQueues(workers, lanes)
	for task := 0; task < numTasks; task++ {
		q.push(task%workers, task)
	}
	got := make(chan int, numTasks)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		for lane := 0; lane < lanes; lane++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					task, _, ok := q.next(w)
					if !ok {
						return
					}
					got <- task
					q.done(w)
				}
			}(w)
		}
	}
	wg.Wait()
	close(got)
	var tasks []int
	for task := range got {
		tasks = append(tasks, task)
	}
	if len(tasks) != numTasks {
		t.Fatalf("dispatched %d tasks, want %d", len(tasks), numTasks)
	}
	sort.Ints(tasks)
	for i, task := range tasks {
		if task != i {
			t.Fatalf("task %d dispatched %s", i, map[bool]string{true: "twice", false: "never"}[task < i])
		}
	}
}

// TestStealQueueVictimChoice pins the deterministic parts of victim
// selection among busy workers: longest queue wins, ties break to the lowest
// worker ID, the take is the victim's tail (the task farthest from running
// there), and a lane's own queue always comes first.
func TestStealQueueVictimChoice(t *testing.T) {
	q := newTaskQueues(4, 1)
	for w, tasks := range [][]int{1: {10, 11, 12}, 2: {20, 21, 22, 23}, 3: {30}} {
		for _, task := range tasks {
			q.push(w, task)
		}
	}
	take := func(w int) (int, int) {
		t.Helper()
		task, victim, ok := tryTake(q, w)
		if !ok {
			t.Fatalf("worker %d got no task", w)
		}
		return task, victim
	}
	// Workers 1–3 take their heads (10, 20, 30): every lane of theirs is busy.
	for w := 1; w <= 3; w++ {
		if task, victim := take(w); victim != w || task != 10*w {
			t.Fatalf("worker %d took task %d from %d, want its own head %d", w, task, victim, 10*w)
		}
	}
	if task, victim := take(0); victim != 2 || task != 23 {
		t.Fatalf("steal from longest queue: got task %d from worker %d, want 23 from 2", task, victim)
	}
	q.done(0)
	// Queues 1 and 2 now tie at two tasks; the lower ID wins.
	if task, victim := take(0); victim != 1 || task != 12 {
		t.Fatalf("tie break: got task %d from worker %d, want 12 from 1", task, victim)
	}
	q.done(0)
	// The thief's own queue comes first, even when another is longer.
	q.push(0, 1)
	if task, victim := take(0); victim != 0 || task != 1 {
		t.Fatalf("own queue: got task %d from worker %d, want 1 from 0", task, victim)
	}
}

// tryTake is one attempt of next that never waits.
func tryTake(q *taskQueues, w int) (task, victim int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.take(w)
}

// TestStealQueueBusyHome pins the steal rule: a steal is refused while the
// victim has an idle lane and granted once all its lanes are busy, and a
// thief waiting in next gives up once the home has taken its last task.
func TestStealQueueBusyHome(t *testing.T) {
	q := newTaskQueues(2, 2)
	for _, task := range []int{40, 41, 42} {
		q.push(1, task)
	}
	if task, _, ok := tryTake(q, 0); ok {
		t.Fatalf("stole task %d from a worker with both lanes idle", task)
	}
	if task, victim, ok := tryTake(q, 1); !ok || victim != 1 || task != 40 {
		t.Fatalf("home lane took task %d from %d (ok=%v), want its head 40", task, victim, ok)
	}
	if task, _, ok := tryTake(q, 0); ok {
		t.Fatalf("stole task %d from a worker with one of two lanes idle", task)
	}
	if task, victim, ok := tryTake(q, 1); !ok || victim != 1 || task != 41 {
		t.Fatalf("second home lane took task %d from %d (ok=%v), want 41", task, victim, ok)
	}
	if task, victim, ok := tryTake(q, 0); !ok || victim != 1 || task != 42 {
		t.Fatalf("steal behind a busy home: got task %d from %d (ok=%v), want 42 from 1", task, victim, ok)
	}

	// A one-task stage: the idle worker waits in next and ends with nothing,
	// whenever the home lane gets to its task.
	q = newTaskQueues(2, 2)
	q.push(0, 7)
	thief := make(chan bool)
	go func() {
		_, _, ok := q.next(1)
		thief <- ok
	}()
	if task, victim, ok := q.next(0); !ok || victim != 0 || task != 7 {
		t.Fatalf("home lane took task %d from %d (ok=%v), want 7 from 0", task, victim, ok)
	}
	if <-thief {
		t.Fatal("the idle worker took the one task of the stage")
	}
}
