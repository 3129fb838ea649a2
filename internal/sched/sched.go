// Package sched is the one stage driver of both execution backends
// (Scheduler.Run: home queues, TasksPerNode lanes per node shared by every
// stage in flight (NodeLanes), the steal rule, retries, first-error abort; a
// runtime supplies one attempt of a task), and the slot gate it dispatches
// through.
//
// Every task holds a slot of the Scheduler while it runs, so several
// concurrently executing plans interleave their tasks on one cluster: when
// tasks from multiple tenants are waiting, slots are granted by weighted
// round-robin across tenants. One giant job therefore cannot starve small
// queries — a tenant with weight w receives w grants per round while it has
// waiters, regardless of how many tasks it has queued.
//
// A Scheduler holds no goroutines of its own and is cheap enough to create
// per cluster; the serve daemon shares a single instance across all tenant
// sessions to get cluster-wide fairness.
package sched

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Scheduler is a weighted-fair slot gate. The zero value is not usable; use
// New. All methods are safe for concurrent use.
type Scheduler struct {
	mu      sync.Mutex
	slots   int
	running int
	tenants map[string]*tenantQ
	ring    []*tenantQ // tenants with at least one waiter, in arrival order
	cursor  int        // index into ring of the tenant currently being served
	credit  int        // grants left for ring[cursor] before moving on
}

// tenantQ is the per-tenant waiter queue plus grant accounting.
type tenantQ struct {
	name    string
	weight  int
	waiters []chan struct{} // FIFO; closed channel = slot granted
	inRing  bool
	granted atomic.Int64
}

// New creates a scheduler with the given number of task slots. Counts below
// one are clamped to one.
func New(slots int) *Scheduler {
	if slots < 1 {
		slots = 1
	}
	return &Scheduler{slots: slots, tenants: map[string]*tenantQ{}}
}

// Slots returns the scheduler's slot count.
func (s *Scheduler) Slots() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slots
}

// Resize changes the slot count — the elastic-membership rebalance hook,
// called by the TCP coordinator with alive-workers x tasks-per-node on every
// membership change. Growing wakes queued waiters immediately; shrinking
// never interrupts running tasks, it just stops granting until the running
// count sinks below the new ceiling. Counts below one are clamped to one.
func (s *Scheduler) Resize(slots int) {
	if slots < 1 {
		slots = 1
	}
	s.mu.Lock()
	s.slots = slots
	s.grantLocked()
	s.mu.Unlock()
}

// Acquire blocks until a task slot is granted to tenant and returns the
// release function for it. The empty tenant name is a valid (default)
// tenant; weights below one are clamped to one. Grant order across tenants
// with waiting tasks is weighted round-robin: a tenant with weight w gets up
// to w consecutive grants per round.
func (s *Scheduler) Acquire(tenant string, weight int) (release func()) {
	if weight < 1 {
		weight = 1
	}
	s.mu.Lock()
	q := s.tenants[tenant]
	if q == nil {
		q = &tenantQ{name: tenant, weight: weight}
		s.tenants[tenant] = q
	}
	q.weight = weight
	// Fast path: a free slot and nobody waiting anywhere.
	if s.running < s.slots && len(s.ring) == 0 {
		s.running++
		q.granted.Add(1)
		s.mu.Unlock()
		return s.releaseFunc()
	}
	ready := make(chan struct{})
	q.waiters = append(q.waiters, ready)
	if !q.inRing {
		q.inRing = true
		s.ring = append(s.ring, q)
	}
	s.grantLocked()
	s.mu.Unlock()
	<-ready
	return s.releaseFunc()
}

func (s *Scheduler) releaseFunc() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			s.running--
			s.grantLocked()
			s.mu.Unlock()
		})
	}
}

// grantLocked hands free slots to waiters in weighted round-robin order.
// Caller holds s.mu.
func (s *Scheduler) grantLocked() {
	for s.running < s.slots && len(s.ring) > 0 {
		if s.cursor >= len(s.ring) {
			s.cursor = 0
			s.credit = 0
		}
		q := s.ring[s.cursor]
		if len(q.waiters) == 0 {
			// Drained tenant: drop it from the ring and move on without
			// consuming credit.
			q.inRing = false
			s.ring = append(s.ring[:s.cursor], s.ring[s.cursor+1:]...)
			s.credit = 0
			continue
		}
		if s.credit == 0 {
			s.credit = q.weight
		}
		ready := q.waiters[0]
		q.waiters = q.waiters[1:]
		s.running++
		s.credit--
		q.granted.Add(1)
		close(ready)
		if len(q.waiters) == 0 {
			q.inRing = false
			s.ring = append(s.ring[:s.cursor], s.ring[s.cursor+1:]...)
			s.credit = 0
		} else if s.credit == 0 {
			s.cursor++
		}
	}
}

// TenantSnapshot reports one tenant's scheduling state.
type TenantSnapshot struct {
	Tenant  string `json:"tenant"`
	Weight  int    `json:"weight"`
	Granted int64  `json:"granted"` // slot grants since scheduler creation
	Waiting int    `json:"waiting"` // tasks currently queued for a slot
}

// Snapshot returns the per-tenant scheduling state, sorted by tenant name,
// plus the number of currently running tasks.
func (s *Scheduler) Snapshot() (tenants []TenantSnapshot, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tenants = make([]TenantSnapshot, 0, len(s.tenants))
	for _, q := range s.tenants {
		tenants = append(tenants, TenantSnapshot{
			Tenant:  q.name,
			Weight:  q.weight,
			Granted: q.granted.Load(),
			Waiting: len(q.waiters),
		})
	}
	slices.SortFunc(tenants, func(a, b TenantSnapshot) int { return strings.Compare(a.Tenant, b.Tenant) })
	return tenants, s.running
}

// String describes the scheduler for debug output.
func (s *Scheduler) String() string {
	ts, running := s.Snapshot()
	return fmt.Sprintf("sched{slots=%d running=%d tenants=%d}", s.Slots(), running, len(ts))
}
