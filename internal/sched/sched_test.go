package sched

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitWaiting polls until the tenant has n lanes waiting.
func waitWaiting(t *testing.T, s *Scheduler, tenant string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ts, _ := s.Snapshot()
		for _, snap := range ts {
			if snap.Tenant == tenant && snap.Waiting == n {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("tenant %q never reached %d waiting lanes", tenant, n)
}

// hold runs a one-task stage of tenant "hold" on node 0 of s whose task
// keeps its lane, and a running slot, until the returned function is
// called; that function returns once the stage has ended.
func hold(t *testing.T, s *Scheduler) (release func()) {
	t.Helper()
	started, free, ended := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ended)
		if _, err := s.Run(Stage{Tasks: 1, Alive: []bool{true}, Tenant: "hold"}, func(int, int, int) error {
			close(started)
			<-free
			return nil
		}); err != nil {
			t.Error(err)
		}
	}()
	<-started
	return func() { close(free); <-ended }
}

// TestWeightedRoundRobin pins the grant order on one lane and two tenants
// of weights 1 and 2, each with four one-task stages waiting: the heavier
// tenant takes two tasks in a row per round while both have lanes waiting.
func TestWeightedRoundRobin(t *testing.T) {
	s := New(1, 0)
	release := hold(t, s)

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	spawn := func(tenant string, weight, n int) {
		for k := 0; k < n; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.Run(Stage{Tasks: 1, Alive: []bool{true}, Tenant: tenant, Weight: weight}, func(int, int, int) error {
					mu.Lock()
					order = append(order, tenant)
					mu.Unlock()
					return nil
				}); err != nil {
					t.Error(err)
				}
			}()
			waitWaiting(t, s, tenant, k+1)
		}
	}
	spawn("A", 1, 4)
	spawn("B", 2, 4)

	release()
	wg.Wait()

	got := strings.Join(order, "")
	// Rounds: A(1), B(2), A(1), B(2), then B is drained and A finishes.
	want := "ABBABBAA"
	if got != want {
		t.Fatalf("grant order = %q, want %q", got, want)
	}

	ts, running := s.Snapshot()
	if running != 0 {
		t.Fatalf("running = %d after drain, want 0", running)
	}
	for _, snap := range ts {
		if snap.Waiting != 0 {
			t.Fatalf("tenant %q still has %d lanes waiting", snap.Tenant, snap.Waiting)
		}
		if snap.Tenant == "A" && snap.Granted != 4 {
			t.Fatalf("tenant A granted = %d, want 4", snap.Granted)
		}
	}
}

// TestRunTasksRunsAll checks that the stage driver runs every task exactly
// once and that concurrency never exceeds the gate's cap, however many
// lanes the nodes have.
func TestRunTasksRunsAll(t *testing.T) {
	const slots, tasks = 3, 50
	s := New(3, slots)
	var ran [tasks]atomic.Int32
	var inFlight, peak atomic.Int32
	_, err := s.Run(Stage{Tasks: tasks, Alive: []bool{true, true, true, true}}, func(_, i, _ int) error {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		ran[i].Add(1)
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if n := ran[i].Load(); n != 1 {
			t.Fatalf("task %d ran %d times", i, n)
		}
	}
	if p := peak.Load(); p > slots {
		t.Fatalf("peak concurrency %d exceeds %d slots", p, slots)
	}
}

// TestRunTasksError checks the first error stops the stage: it comes back
// wrapped with the stage and task, and tasks that had not started never run.
func TestRunTasksError(t *testing.T) {
	s := New(1, 1)
	boom := errors.New("boom")
	var started atomic.Int32
	_, err := s.Run(Stage{Name: "st", Tasks: 100, Alive: []bool{true}}, func(_, i, _ int) error {
		started.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), `stage "st" task 3`) {
		t.Fatalf("err = %v, want %v from stage \"st\" task 3", err, boom)
	}
	// One lane means strictly sequential dispatch: tasks 0..3 started, the
	// rest never ran.
	if n := started.Load(); n != 4 {
		t.Fatalf("started %d tasks, want 4", n)
	}

	// Two lanes wait for the gate's one slot, each for a task that fails:
	// the second task, not started when the first failed, never runs.
	s = New(1, 1)
	release := hold(t, s)
	started.Store(0)
	done := make(chan error)
	go func() {
		_, err := s.Run(Stage{Tasks: 2, Alive: []bool{true, true}}, func(int, int, int) error {
			started.Add(1)
			return boom
		})
		done <- err
	}()
	waitWaiting(t, s, "", 2)
	release()
	if err := <-done; !errors.Is(err, boom) || started.Load() != 1 {
		t.Fatalf("err = %v after %d started tasks, want %v after 1", err, started.Load(), boom)
	}
}

// TestRunTasksZero checks the degenerate cases.
func TestRunTasksZero(t *testing.T) {
	s := New(4, 4)
	never := func(int, int, int) error { return errors.New("never") }
	if steals, err := s.Run(Stage{Alive: []bool{true}}, never); err != nil || steals != 0 {
		t.Fatalf("empty stage: %d steals, %v", steals, err)
	}
	if got := New(0, -1); got.per != 1 || got.limit != 0 {
		t.Fatalf("New(0, -1) has %d lanes per node and cap %d, want 1 and none (0)", got.per, got.limit)
	}
}

// TestSharedSchedulerInterleaves runs two tenants' stages through one
// single-slot gate concurrently and checks both make progress before
// either finishes (round-robin interleaving rather than FIFO draining).
func TestSharedSchedulerInterleaves(t *testing.T) {
	s := New(4, 1)
	var mu sync.Mutex
	var order []string
	run := func(tenant string) error {
		_, err := s.Run(Stage{Tasks: 8, Alive: []bool{true, true}, Tenant: tenant, Weight: 1}, func(int, int, int) error {
			mu.Lock()
			order = append(order, tenant)
			mu.Unlock()
			time.Sleep(time.Millisecond)
			return nil
		})
		return err
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, tenant := range []string{"A", "B"} {
		wg.Add(1)
		go func() { defer wg.Done(); errs[i] = run(tenant) }()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Both tenants ran 8 tasks; with one slot and round-robin the first 8
	// grants cannot all belong to one tenant.
	head := strings.Join(order[:8], "")
	if head == "AAAAAAAA" || head == "BBBBBBBB" {
		t.Fatalf("first 8 grants all went to one tenant: %q", head)
	}
}

// TestSharedGateBoundsNodeAcrossStages: two stages of two tenants on one
// gate of two one-lane nodes, each with one task homed on node 0. The
// first stage's task holds node 0's lane until the second stage's task has
// started; that one must start elsewhere, taken by node 1's lane because
// node 0's lanes are all busy: node 0 never runs two tasks at once.
func TestSharedGateBoundsNodeAcrossStages(t *testing.T) {
	s := New(1, 0)
	var (
		mu       sync.Mutex
		running  [2]int
		peak     [2]int
		bStarted = make(chan struct{})
	)
	body := func(node int, wait func() error) error {
		mu.Lock()
		running[node]++
		peak[node] = max(peak[node], running[node])
		mu.Unlock()
		err := wait()
		mu.Lock()
		running[node]--
		mu.Unlock()
		return err
	}
	aStarted := make(chan struct{})
	aDone := make(chan error)
	go func() {
		_, err := s.Run(Stage{Name: "a", Tasks: 1, Alive: []bool{true, true}, Tenant: "A"}, func(node, _, _ int) error {
			return body(node, func() error {
				close(aStarted)
				select {
				case <-bStarted:
					return nil
				case <-time.After(5 * time.Second):
					return errors.New("stage b never started a task while stage a held node 0")
				}
			})
		})
		aDone <- err
	}()
	<-aStarted
	steals, err := s.Run(Stage{Name: "b", Tasks: 1, Alive: []bool{true, true}, Tenant: "B"}, func(node, _, _ int) error {
		return body(node, func() error { close(bStarted); return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-aDone; err != nil {
		t.Fatal(err)
	}
	if peak != [2]int{1, 1} || steals != 1 {
		t.Fatalf("peak tasks per node %v with %d steals in stage b, want [1 1] with 1", peak, steals)
	}
}

// TestOldestStageFirst: within a tenant, a freed lane goes to the stage
// that started first. Two two-task stages of one tenant wait on one lane
// behind a holder; the older runs both its tasks before the younger
// starts, so the stages finish in the order they started.
func TestOldestStageFirst(t *testing.T) {
	s := New(1, 0)
	release := hold(t, s)
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	for k, name := range []string{"old", "young"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Run(Stage{Tasks: 2, Alive: []bool{true}}, func(int, int, int) error {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				return nil
			}); err != nil {
				t.Error(err)
			}
		}()
		waitWaiting(t, s, "", k+1)
	}
	release()
	wg.Wait()
	if got := strings.Join(order, " "); got != "old old young young" {
		t.Fatalf("run order %q, want \"old old young young\"", got)
	}
}
