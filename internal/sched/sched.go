// Package sched is the one stage driver of both execution backends and the
// one gate their tasks pass (Scheduler.Run: home queues, the steal rule,
// retries, first-error abort; a runtime supplies one attempt of a task).
//
// A Scheduler holds, under one mutex, each node's lanes — a node runs at most
// its lane count of tasks at once, however many stages are in flight —, an
// optional cap on the tasks running at once across the nodes, the queues of
// every stage in flight and the tenants' weighted round-robin turn. A lane
// takes its task and its node's lane in one step, and only on its tenant's
// turn among the tenants with a lane waiting that could take a task: a
// tenant of weight w takes up to w tasks per round while it has lanes
// waiting, however many tasks it has queued, so one giant job cannot starve
// small queries.
//
// Each runtime runs its stages through a Seat at a Scheduler of its own; the
// serve daemon's sessions share one, and with it the nodes' lanes and the
// tenants' turn. A Scheduler holds no goroutines of its own.
package sched

import (
	"slices"
	"strings"
	"sync"
)

// Scheduler is the dispatch gate of a cluster's nodes. The zero value is not
// usable; use New. All methods are safe for concurrent use.
type Scheduler struct {
	mu      sync.Mutex
	per     int   // lanes per node
	limit   int   // tasks running at once across the nodes; 0: the lanes alone bound them
	running int   // tasks running, of any stage
	busy    []int // per node: lanes holding a task, of any stage
	tenants map[string]*tenant
	ring    []*tenant // tenants with a lane waiting, in arrival order
	cursor  int       // index into ring of the tenant whose turn it is
	credit  int       // grants left for ring[cursor] before its turn passes
	stages  uint64    // stages opened, numbering them (taskQueues.seq)
}

// tenant is one tenant's waiting lanes and grant count.
type tenant struct {
	name    string
	weight  int
	granted int64
	waiting []waiter // in ring exactly while not empty; oldest stage first
}

// waiter is a stage's lanes on one node that wait in next for a task.
type waiter struct {
	q    *taskQueues
	node int
}

// New returns a gate of lanesPerNode lanes on every node (at least one) that
// runs at most limit tasks at once across the nodes; a limit below one
// leaves the lanes the only bound.
func New(lanesPerNode, limit int) *Scheduler {
	return &Scheduler{per: max(lanesPerNode, 1), limit: max(limit, 0), tenants: map[string]*tenant{}}
}

// Seat is a runtime's place at a dispatch gate: the gate its stages run
// through, and the policy they run under — the runtime's retries and injected
// failures, and the tenant tag they take their turn under. Both
// runtimes embed one, so a shared gate and a tenant tag are set the same way
// on either. Safe for concurrent use.
type Seat struct {
	mu     sync.Mutex
	gate   *Scheduler
	policy Stage // Tenant, Weight, Retries and Inject of every stage
}

// NewSeat returns a seat at gate whose stages run under policy; a stage's
// own Name, Tasks and Alive replace policy's.
func NewSeat(gate *Scheduler, policy Stage) *Seat {
	return &Seat{gate: gate, policy: policy}
}

// SetScheduler moves the seat to a gate shared with other runtimes; nil is
// ignored. Call before running stages: the serve daemon installs one gate
// across its sessions, so their tasks share the nodes' lanes and interleave
// by weighted round-robin.
func (s *Seat) SetScheduler(g *Scheduler) {
	if g == nil {
		return
	}
	s.mu.Lock()
	s.gate = g
	s.mu.Unlock()
}

// SetTenant tags the seat's subsequent stages with a tenant name and
// scheduling weight for the gate's turn.
func (s *Seat) SetTenant(name string, weight int) {
	s.mu.Lock()
	s.policy.Tenant, s.policy.Weight = name, weight
	s.mu.Unlock()
}

// Run runs a stage of tasks tasks over the nodes alive names on the seat's
// gate, under its policy (Scheduler.Run).
func (s *Seat) Run(name string, tasks int, alive []bool, run func(node, taskID, attempt int) error) (steals int64, err error) {
	s.mu.Lock()
	g, st := s.gate, s.policy
	s.mu.Unlock()
	st.Name, st.Tasks, st.Alive = name, tasks, alive
	return g.Run(st, run)
}

// dispatch hands tasks to waiting lanes until no lane can take one or the
// cap is reached — the one place that decides which lane a freed node lane
// goes to. Each grant goes to the tenant whose turn it is among the tenants
// with a lane that can take a task now (a tenant keeps its turn for weight
// grants), and within it to the lanes of its oldest stage that can, so a
// tenant's stages finish in the order they started. Only a granted lane is
// woken. The caller holds s.mu.
func (s *Scheduler) dispatch() {
	for s.limit == 0 || s.running < s.limit {
		if s.cursor >= len(s.ring) {
			s.cursor, s.credit = 0, 0
		}
		if !s.grant() {
			return
		}
	}
}

// grant is one step of dispatch: it hands one waiting lane its task and
// reports whether any lane could take one.
func (s *Scheduler) grant() bool {
	for i := range s.ring {
		k := (s.cursor + i) % len(s.ring)
		t := s.ring[k]
		for j, w := range t.waiting {
			task, victim, ok := w.q.take(w.node)
			if !ok {
				continue
			}
			if k != s.cursor {
				s.cursor, s.credit = k, 0
			}
			if s.credit == 0 {
				s.credit = t.weight
			}
			s.credit--
			t.granted++
			w.q.parked[w.node]--
			w.q.grants[w.node] <- grant{task: task, victim: victim, ok: true}
			if w.q.parked[w.node] == 0 {
				t.waiting = slices.Delete(t.waiting, j, j+1)
			}
			if w.q.left == 0 {
				w.q.end()
			}
			if len(t.waiting) == 0 {
				s.leave(t)
			} else if s.credit == 0 {
				s.cursor++
			}
			return true
		}
	}
	return false
}

// leave takes a tenant with no lane waiting out of the ring. The caller
// holds s.mu.
func (s *Scheduler) leave(t *tenant) {
	k := slices.Index(s.ring, t)
	if k < 0 {
		return
	}
	s.ring = slices.Delete(s.ring, k, k+1)
	if k < s.cursor {
		s.cursor--
	} else if k == s.cursor {
		s.credit = 0
	}
}

// TenantSnapshot reports one tenant's scheduling state.
type TenantSnapshot struct {
	Tenant  string `json:"tenant"`
	Weight  int    `json:"weight"`
	Granted int64  `json:"granted"` // tasks its lanes took since the gate was made
	Waiting int    `json:"waiting"` // its lanes waiting for a task their stage has queued
}

// Snapshot returns the per-tenant scheduling state, sorted by tenant name,
// plus the number of tasks running.
func (s *Scheduler) Snapshot() (tenants []TenantSnapshot, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tenants = make([]TenantSnapshot, 0, len(s.tenants))
	for _, t := range s.tenants {
		waiting := 0
		for _, w := range t.waiting {
			waiting += w.q.parked[w.node]
		}
		tenants = append(tenants, TenantSnapshot{Tenant: t.name, Weight: t.weight, Granted: t.granted, Waiting: waiting})
	}
	slices.SortFunc(tenants, func(a, b TenantSnapshot) int { return strings.Compare(a.Tenant, b.Tenant) })
	return tenants, s.running
}
