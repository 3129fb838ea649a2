package sched

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// checkStealInterleaving drives one seeded random interleaving of lanes over
// the queue model — a lane takes a task or finishes the one it holds, in
// random order, so some nodes straggle — and checks the exactly-once
// property (every task pushed under home placement is dispatched exactly
// once) and the steal rule: a lane takes its own queue's head while there is
// one, and steals only from a node whose lanes all hold a task.
func checkStealInterleaving(seed int64, nodes, lanes, numTasks int) error {
	rng := rand.New(rand.NewSource(seed))
	q := newTaskQueues(nodes, lanes)
	for task := 0; task < numTasks; task++ {
		q.push(task%nodes, task)
	}
	held := make([]int, nodes) // lanes of each node holding a task
	seen := make(map[int]bool, numTasks)
	for step := 0; len(seen) < numTasks; step++ {
		if step > 100*numTasks*nodes*lanes {
			return fmt.Errorf("no progress: %d of %d tasks dispatched", len(seen), numTasks)
		}
		n := rng.Intn(nodes)
		if held[n] > 0 && (held[n] == lanes || rng.Intn(3) == 0) {
			release(q, n)
			held[n]--
			continue
		}
		own := len(q.queues[n]) > 0
		busy := slices.Clone(q.s.busy)
		task, victim, ok := tryTake(q, n)
		if !ok {
			continue
		}
		held[n]++
		switch {
		case seen[task]:
			return fmt.Errorf("task %d dispatched twice", task)
		case own && victim != n:
			return fmt.Errorf("node %d stole task %d from %d with its own queue non-empty", n, task, victim)
		case victim != n && busy[victim] != lanes:
			return fmt.Errorf("node %d stole task %d from %d with %d of %d lanes busy", n, task, victim, busy[victim], lanes)
		}
		seen[task] = true
	}
	if _, _, ok := q.next(0, false); ok {
		return fmt.Errorf("next handed out a task after all %d were dispatched", numTasks)
	}
	return nil
}

// TestStealQueueExactlyOnceProperty runs many seeded interleavings; on
// failure it shrinks the scenario to the smallest node/lane/task count that
// still fails under the same seed and reports it, so the failure replays
// deterministically.
func TestStealQueueExactlyOnceProperty(t *testing.T) {
	const (
		seeds    = 300
		nodes    = 5
		lanes    = 2
		numTasks = 37
	)
	for seed := int64(0); seed < seeds; seed++ {
		err := checkStealInterleaving(seed, nodes, lanes, numTasks)
		if err == nil {
			continue
		}
		// Shrink: smallest (nodes, lanes, tasks) lexicographically that
		// still fails with this seed.
		sn, sl, st, serr := nodes, lanes, numTasks, err
		for n := 2; n <= nodes; n++ {
			for l := 1; l <= lanes; l++ {
				for k := 1; k <= numTasks; k++ {
					if e := checkStealInterleaving(seed, n, l, k); e != nil {
						sn, sl, st, serr = n, l, k, e
						goto shrunk
					}
				}
			}
		}
	shrunk:
		t.Fatalf("seed=%d nodes=%d lanes=%d tasks=%d: %v (replay with checkStealInterleaving(%d, %d, %d, %d))",
			seed, sn, sl, st, serr, seed, sn, sl, st)
	}
}

// TestStealQueueConcurrentDrain hammers one taskQueues from real goroutine
// lanes and checks exactly-once under the race detector: each lane takes
// tasks until next reports nothing left.
func TestStealQueueConcurrentDrain(t *testing.T) {
	const (
		nodes    = 4
		lanes    = 3 // lanes per node, like TasksPerNode
		numTasks = 400
	)
	q := newTaskQueues(nodes, lanes)
	for task := 0; task < numTasks; task++ {
		q.push(task%nodes, task)
	}
	got := make(chan int, numTasks)
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		for lane := 0; lane < lanes; lane++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for task, _, ok := q.next(n, false); ok; task, _, ok = q.next(n, true) {
					got <- task
				}
			}(n)
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
// selection among busy nodes: longest queue wins, ties break to the lowest
// node, the take is the victim's tail (the task farthest from running
// there), and a lane's own queue always comes first.
func TestStealQueueVictimChoice(t *testing.T) {
	q := newTaskQueues(4, 1)
	for n, tasks := range [][]int{1: {10, 11, 12}, 2: {20, 21, 22, 23}, 3: {30}} {
		for _, task := range tasks {
			q.push(n, task)
		}
	}
	take := func(n int) (int, int) {
		t.Helper()
		task, victim, ok := tryTake(q, n)
		if !ok {
			t.Fatalf("node %d got no task", n)
		}
		return task, victim
	}
	// Nodes 1–3 take their heads (10, 20, 30): every lane of theirs is busy.
	for n := 1; n <= 3; n++ {
		if task, victim := take(n); victim != n || task != 10*n {
			t.Fatalf("node %d took task %d from %d, want its own head %d", n, task, victim, 10*n)
		}
	}
	if task, victim := take(0); victim != 2 || task != 23 {
		t.Fatalf("steal from longest queue: got task %d from node %d, want 23 from 2", task, victim)
	}
	release(q, 0)
	// Queues 1 and 2 now tie at two tasks; the lower node wins.
	if task, victim := take(0); victim != 1 || task != 12 {
		t.Fatalf("tie break: got task %d from node %d, want 12 from 1", task, victim)
	}
	release(q, 0)
	// The thief's own queue comes first, even when another is longer.
	q.push(0, 1)
	if task, victim := take(0); victim != 0 || task != 1 {
		t.Fatalf("own queue: got task %d from node %d, want 1 from 0", task, victim)
	}
}

// newTaskQueues returns the empty queues of a stage on n live nodes of a
// gate of lanes lanes per node.
func newTaskQueues(n, lanes int) *taskQueues {
	alive := make([]bool, n)
	for v := range alive {
		alive[v] = true
	}
	return New(lanes, 0).open(alive, "", 1)
}

// tryTake is one attempt of next that never waits.
func tryTake(q *taskQueues, n int) (task, victim int, ok bool) {
	q.s.mu.Lock()
	defer q.s.mu.Unlock()
	return q.take(n)
}

// release ends the task a lane of node n took by tryTake.
func release(q *taskQueues, n int) {
	q.s.mu.Lock()
	defer q.s.mu.Unlock()
	q.release(n)
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
		t.Fatalf("stole task %d from a node with both lanes idle", task)
	}
	if task, victim, ok := tryTake(q, 1); !ok || victim != 1 || task != 40 {
		t.Fatalf("home lane took task %d from %d (ok=%v), want its head 40", task, victim, ok)
	}
	if task, _, ok := tryTake(q, 0); ok {
		t.Fatalf("stole task %d from a node with one of two lanes idle", task)
	}
	if task, victim, ok := tryTake(q, 1); !ok || victim != 1 || task != 41 {
		t.Fatalf("second home lane took task %d from %d (ok=%v), want 41", task, victim, ok)
	}
	if task, victim, ok := tryTake(q, 0); !ok || victim != 1 || task != 42 {
		t.Fatalf("steal behind a busy home: got task %d from %d (ok=%v), want 42 from 1", task, victim, ok)
	}

	// A one-task stage: the idle node waits in next and ends with nothing,
	// whenever the home lane gets to its task.
	q = newTaskQueues(2, 2)
	q.push(0, 7)
	thief := make(chan bool)
	go func() {
		_, _, ok := q.next(1, false)
		thief <- ok
	}()
	if task, victim, ok := q.next(0, false); !ok || victim != 0 || task != 7 {
		t.Fatalf("home lane took task %d from %d (ok=%v), want 7 from 0", task, victim, ok)
	}
	if <-thief {
		t.Fatal("the idle node took the one task of the stage")
	}
}

// placement records which node ran each task of a stage, in run order.
type placement struct {
	mu    sync.Mutex
	node  map[int]int
	order []int
}

func (p *placement) ran(node, task int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.node == nil {
		p.node = map[int]int{}
	}
	p.node[task] = node
	p.order = append(p.order, task)
}

// TestRunStragglerTailStolen: node 1 blocks in its first task, a straggler.
// Node 0 runs its own queue, then takes exactly node 1's queued tail, last
// task first, and the straggler ends with the one task it started.
func TestRunStragglerTailStolen(t *testing.T) {
	const tasks = 8 // node 0: 0 2 4 6, node 1: 1 3 5 7
	var p placement
	release := make(chan struct{})
	var others sync.WaitGroup
	others.Add(tasks - 1)
	go func() { others.Wait(); close(release) }()
	steals, err := New(1, 2).Run(Stage{Tasks: tasks, Alive: []bool{true, true}}, func(node, task, _ int) error {
		p.ran(node, task)
		if task == 1 {
			<-release // the straggler is held until every other task has run
		} else {
			others.Done()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]int{0: 0, 2: 0, 4: 0, 6: 0, 1: 1, 7: 0, 5: 0, 3: 0}
	if !maps.Equal(p.node, want) || steals != 3 {
		t.Fatalf("ran %v with %d steals; want %v with 3", p.node, steals, want)
	}
	var stolen []int
	for _, task := range p.order {
		if task%2 == 1 && p.node[task] == 0 {
			stolen = append(stolen, task)
		}
	}
	if !slices.Equal(stolen, []int{7, 5, 3}) {
		t.Fatalf("stole %v, want the tail first: [7 5 3]", stolen)
	}
}

// TestRunFitsAtHome: a stage with no more tasks than lanes runs every task
// at its home, every time — a one-task stage on node 0, and a full stage of
// one task per lane — with nothing stolen.
func TestRunFitsAtHome(t *testing.T) {
	s := New(2, 2)
	for _, tasks := range []int{1, 6} {
		for run := 0; run < 1000; run++ {
			var p placement
			steals, err := s.Run(Stage{Tasks: tasks, Alive: []bool{true, true, true}}, func(node, task, _ int) error {
				p.ran(node, task)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for task, node := range p.node {
				if node != task%3 || steals != 0 {
					t.Fatalf("%d-task stage, run %d: task %d ran on node %d with %d steals; want its home %d, 0 steals",
						tasks, run, task, node, steals, task%3)
				}
			}
			if len(p.node) != tasks {
				t.Fatalf("%d-task stage ran %d tasks", tasks, len(p.node))
			}
		}
	}
}

// TestRunAttempts: a failed task is attempted 1+Retries times, Inject is
// consulted before each attempt (an injected attempt never reaches run), and
// a task that fails every attempt fails the stage with its last error.
func TestRunAttempts(t *testing.T) {
	var mu sync.Mutex
	attempts := map[int][]int{} // task → the attempts run saw
	fails := errors.New("attempt failed")
	st := Stage{Name: "retry", Tasks: 4, Alive: []bool{true, true}, Retries: 2,
		Inject: func(task, attempt int) bool { return task == 2 && attempt == 0 }}
	run := func(_, task, attempt int) error {
		mu.Lock()
		attempts[task] = append(attempts[task], attempt)
		mu.Unlock()
		if attempt < task { // task k fails its first k attempts
			return fails
		}
		return nil
	}
	if _, err := New(2, 2).Run(Stage{Tasks: 3, Alive: st.Alive, Retries: 2, Inject: st.Inject}, run); err != nil {
		t.Fatalf("tasks needing at most 3 attempts failed under Retries 2: %v", err)
	}
	want := map[int][]int{0: {0}, 1: {0, 1}, 2: {1, 2}}
	for task, w := range want {
		if !slices.Equal(attempts[task], w) {
			t.Errorf("task %d: attempts %v, want %v", task, attempts[task], w)
		}
	}

	clear(attempts)
	_, err := New(2, 2).Run(st, run)
	if !errors.Is(err, fails) || !slices.Equal(attempts[3], []int{0, 1, 2}) {
		t.Fatalf("a task failing 3 of 3 attempts: err %v after attempts %v; want %v after [0 1 2]", err, attempts[3], fails)
	}
	if _, err := New(1, 1).Run(Stage{Tasks: 1, Alive: []bool{true}, Retries: 1,
		Inject: func(int, int) bool { return true }}, run); !errors.Is(err, ErrInjected) {
		t.Fatalf("every attempt injected: err %v, want ErrInjected", err)
	}
}

// TestRunDeadHomesFallForward: a task whose home is dead is queued at the
// next live node, and with every node dead the stage fails without running.
func TestRunDeadHomesFallForward(t *testing.T) {
	var p placement
	alive := []bool{true, false, true, false}
	steals, err := New(4, 2).Run(Stage{Tasks: 8, Alive: alive}, func(node, task, _ int) error {
		p.ran(node, task)
		return nil
	})
	want := map[int]int{0: 0, 1: 2, 2: 2, 3: 0, 4: 0, 5: 2, 6: 2, 7: 0}
	if err != nil || steals != 0 || !maps.Equal(p.node, want) {
		t.Fatalf("ran %v with %d steals (%v); want %v with 0", p.node, steals, err, want)
	}
	if _, err := New(1, 1).Run(Stage{Tasks: 1, Alive: []bool{false, false}}, func(int, int, int) error {
		t.Error("a stage with no live node ran a task")
		return nil
	}); err == nil {
		t.Fatal("a stage with no live node succeeded")
	}
}

// TestRunSharesNodeLanes: stages in flight at once share their nodes' lanes.
// Three stages of a task per node run together on two one-lane nodes: no
// node ever runs two tasks at once, though each stage starts a lane on each
// node. An idle node may take a task queued behind the other, busy one, and
// every such task counts as a steal.
func TestRunSharesNodeLanes(t *testing.T) {
	s := New(1, 8)
	var (
		mu      sync.Mutex
		running [2]int
		peak    [2]int
		away    []int
		ran     int
		stolen  atomic.Int64
	)
	var wg sync.WaitGroup
	for stage := 0; stage < 3; stage++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			steals, err := s.Run(Stage{Tasks: 2, Alive: []bool{true, true}}, func(node, task, _ int) error {
				mu.Lock()
				running[node]++
				ran++
				peak[node] = max(peak[node], running[node])
				if node != task%2 {
					away = append(away, task)
				}
				mu.Unlock()
				runtime.Gosched()
				mu.Lock()
				running[node]--
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Errorf("stage %d: %v", stage, err)
			}
			stolen.Add(steals)
		}()
	}
	wg.Wait()
	if peak != [2]int{1, 1} || ran != 6 {
		t.Errorf("peak tasks per node %v, want [1 1]; %d tasks ran, want 6", peak, ran)
	}
	if int64(len(away)) != stolen.Load() {
		t.Errorf("tasks %v ran away from home, %d steals counted", away, stolen.Load())
	}
}
