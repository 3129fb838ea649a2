package sched

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitWaiting polls until the tenant has n queued waiters.
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
	t.Fatalf("tenant %q never reached %d waiters", tenant, n)
}

// TestWeightedRoundRobin pins the grant order with one slot and two tenants
// of weights 1 and 2: the heavier tenant receives two consecutive grants per
// round while both have waiters.
func TestWeightedRoundRobin(t *testing.T) {
	s := New(1)
	holder := s.Acquire("hold", 1)

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	spawn := func(tenant string, weight, n int) {
		for k := 0; k < n; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				release := s.Acquire(tenant, weight)
				mu.Lock()
				order = append(order, tenant)
				mu.Unlock()
				release()
			}()
			waitWaiting(t, s, tenant, k+1)
		}
	}
	spawn("A", 1, 4)
	spawn("B", 2, 4)

	holder()
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
			t.Fatalf("tenant %q still has %d waiters", snap.Tenant, snap.Waiting)
		}
		if snap.Tenant == "A" && snap.Granted != 4 {
			t.Fatalf("tenant A granted = %d, want 4", snap.Granted)
		}
	}
}

// TestRunTasksRunsAll checks that the stage driver runs every task exactly
// once and that concurrency never exceeds the slot count, however many
// lanes the nodes have.
func TestRunTasksRunsAll(t *testing.T) {
	const slots, tasks = 3, 50
	s := New(slots)
	var ran [tasks]atomic.Int32
	var inFlight, peak atomic.Int32
	_, err := s.Run(Stage{Tasks: tasks, Alive: []bool{true, true, true, true}, Lanes: 3}, func(_, i, _ int) error {
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
	s := New(1)
	boom := errors.New("boom")
	var started atomic.Int32
	_, err := s.Run(Stage{Name: "st", Tasks: 100, Alive: []bool{true}, Lanes: 1}, func(_, i, _ int) error {
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

	// Two lanes wait for the one slot, each holding a task that fails: the
	// second task, taken but not started when the first failed, never runs.
	s = New(1)
	hold := s.Acquire("", 1)
	started.Store(0)
	done := make(chan error)
	go func() {
		_, err := s.Run(Stage{Tasks: 2, Alive: []bool{true, true}, Lanes: 1}, func(int, int, int) error {
			started.Add(1)
			return boom
		})
		done <- err
	}()
	waitWaiting(t, s, "", 2)
	hold()
	if err := <-done; !errors.Is(err, boom) || started.Load() != 1 {
		t.Fatalf("err = %v after %d started tasks, want %v after 1", err, started.Load(), boom)
	}
}

// TestRunTasksZero checks the degenerate cases.
func TestRunTasksZero(t *testing.T) {
	s := New(4)
	never := func(int, int, int) error { return errors.New("never") }
	if steals, err := s.Run(Stage{Alive: []bool{true}}, never); err != nil || steals != 0 {
		t.Fatalf("empty stage: %d steals, %v", steals, err)
	}
	if got := New(0).Slots(); got != 1 {
		t.Fatalf("Slots() = %d after New(0), want 1", got)
	}
}

// TestSharedSchedulerInterleaves runs two tenants' stages through one
// single-slot scheduler concurrently and checks both make progress before
// either finishes (round-robin interleaving rather than FIFO draining).
func TestSharedSchedulerInterleaves(t *testing.T) {
	s := New(1)
	var mu sync.Mutex
	var order []string
	run := func(tenant string) error {
		_, err := s.Run(Stage{Tasks: 8, Alive: []bool{true, true}, Lanes: 4, Tenant: tenant, Weight: 1}, func(int, int, int) error {
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
