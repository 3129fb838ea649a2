package fuseme

import (
	"errors"
	"fmt"

	"fuseme/internal/membership"
	"fuseme/internal/obs"
	"fuseme/internal/plancache"
	"fuseme/internal/rt"
	"fuseme/internal/sched"
)

// ErrSessionBusy is returned by Query when another Query is already running
// on the same session. Sessions execute one query at a time; run concurrent
// queries on separate sessions (the serve daemon keeps a pool for exactly
// this reason).
var ErrSessionBusy = errors.New("fuseme: session is already executing a query (use one session per concurrent query)")

// PlanCache caches compiled physical plans keyed by a canonical, name-free
// encoding of the query DAG plus the engine and cluster knobs. Share one
// PlanCache across sessions (WithPlanCache) so repeat queries — even with
// different variable names or binding order — skip CFG exploration. Safe
// for concurrent use.
type PlanCache struct {
	c *plancache.Cache
}

// NewPlanCache creates a plan cache holding at most maxEntries compiled
// plans (<= 0 selects a default of 256).
func NewPlanCache(maxEntries int) *PlanCache {
	return &PlanCache{c: plancache.New(maxEntries)}
}

// PlanCacheStats reports plan-cache effectiveness.
type PlanCacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

// Stats returns hit/miss counters and the number of cached plans.
func (p *PlanCache) Stats() PlanCacheStats {
	h, m, n := p.c.Stats()
	return PlanCacheStats{Hits: h, Misses: m, Entries: n}
}

// WithPlanCache attaches a (shared) plan cache to the session: Query,
// Explain and ExplainCosts reuse cached plans for structurally identical
// scripts instead of re-running plan generation.
func WithPlanCache(pc *PlanCache) Option {
	return func(s *Session) error {
		if pc == nil {
			return errors.New("fuseme: WithPlanCache(nil)")
		}
		s.planCache = pc
		return nil
	}
}

// Scheduler is a weighted-fair task-dispatch gate. Sharing one scheduler
// across sessions (WithScheduler) makes their stage tasks interleave by
// weighted round-robin across tenants instead of each session dispatching
// at full cluster width. Safe for concurrent use.
type Scheduler struct {
	s *sched.Scheduler
}

// NewScheduler creates a scheduler with the given number of concurrent task
// slots (values below one are clamped to one). For a shared cluster, size
// it at the cluster's total slot count.
func NewScheduler(slots int) *Scheduler {
	return &Scheduler{s: sched.New(slots)}
}

// Slots returns the scheduler's slot count.
func (sc *Scheduler) Slots() int { return sc.s.Slots() }

// TenantSchedStats reports one tenant's scheduling state.
type TenantSchedStats = sched.TenantSnapshot

// TenantStats returns per-tenant grant/wait counts (sorted by tenant name)
// and the number of currently running tasks.
func (sc *Scheduler) TenantStats() (tenants []TenantSchedStats, running int) {
	return sc.s.Snapshot()
}

// WithScheduler installs a shared task-dispatch scheduler on the session's
// execution backend. Combine with SetTenant to tag the session's stages.
func WithScheduler(sc *Scheduler) Option {
	return func(s *Session) error {
		if sc == nil {
			return errors.New("fuseme: WithScheduler(nil)")
		}
		s.sched = sc
		return nil
	}
}

// WithRegistry attaches an existing metrics registry instead of creating a
// private one, so several sessions (the serve daemon's pool) aggregate into
// one /metrics endpoint.
func WithRegistry(reg *obs.Registry) Option {
	return func(s *Session) error {
		if reg == nil {
			return errors.New("fuseme: WithRegistry(nil)")
		}
		s.obs.Metrics = reg
		return nil
	}
}

// SetTenant tags the session's subsequent executions with a tenant name and
// scheduling weight. With a shared Scheduler installed, the tag drives
// weighted round-robin dispatch across tenants; without one it is inert.
func (s *Session) SetTenant(name string, weight int) {
	s.tenantMu.Lock()
	s.tenant, s.tenantWeight = name, weight
	s.tenantMu.Unlock()
	s.rtMu.Lock()
	if tt, ok := s.rtm.(tenantTagger); ok {
		tt.SetTenant(name, weight)
	}
	s.rtMu.Unlock()
}

// tenantTag returns the session's tenant tag.
func (s *Session) tenantTag() (string, int) {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	return s.tenant, s.tenantWeight
}

// LastPlanCacheHit reports whether the most recent Query (or Explain)
// compiled from the plan cache rather than running plan generation.
func (s *Session) LastPlanCacheHit() bool { return s.lastPlanHit }

// tenantTagger is implemented by backends whose stages can be tagged for a
// shared scheduler.
type tenantTagger interface{ SetTenant(name string, weight int) }

// schedSetter is implemented by backends that accept a shared dispatch
// scheduler.
type schedSetter interface{ SetScheduler(s *sched.Scheduler) }

// planFingerprint appends the engine identity/knobs and every cluster
// parameter the compile reads to the canonical DAG key, so plans compiled
// under different configurations never collide in a shared cache. The
// parameters are taken from the resolved configuration the compiler is handed
// (rtm.Config(): worker count as connected), not from the ClusterConfig the
// caller wrote. Engine structs print
// deterministically. Membership is not part of the key: the TCP runtime's
// Config is the seed cluster's shape whatever joins or leaves later, so a
// membership change compiles the same plan, and placement follows the active
// workers per stage.
func (s *Session) planFingerprint(rtm rt.Runtime) string {
	cc := rtm.Config()
	return fmt.Sprintf("eng=%T%+v|cl=N%d,slots%d,M%d,B%d,net%g,comp%g,rt=%s",
		s.engine, s.engine,
		cc.Nodes, cc.TotalSlots(), cc.TaskMemBytes, cc.BlockSize,
		cc.NetBandwidth, cc.CompBandwidth, s.cfg.Runtime)
}

// ServeJoin starts the TCP runtime's join listener on addr (host:port; ":0"
// picks an ephemeral port) and returns the bound address. Workers register
// with it at any time — `fuseme-worker -join <addr>` — and announce
// voluntary departure when draining; every accepted change resizes
// scheduling, and the next stage places its tasks on the active workers. The
// backend is constructed on demand, so the configured seed workers must be
// reachable. Errors under the simulated runtime, whose workers are implicit.
func (s *Session) ServeJoin(addr string) (string, error) {
	rtm, err := s.runtime()
	if err != nil {
		return "", err
	}
	js, ok := rtm.(interface{ ServeJoin(string) (string, error) })
	if !ok {
		return "", errors.New("fuseme: join listener requires the tcp runtime")
	}
	bound, err := js.ServeJoin(addr)
	if err != nil {
		return "", fmt.Errorf("fuseme: %w", err)
	}
	return bound, nil
}

// JoinAddr returns the join listener's bound address, or "" when ServeJoin
// has not been called (or the backend has been closed since).
func (s *Session) JoinAddr() string {
	s.rtMu.Lock()
	rtm := s.rtm
	s.rtMu.Unlock()
	if ja, ok := rtm.(interface{ JoinAddr() string }); ok {
		return ja.JoinAddr()
	}
	return ""
}

// WorkerStatus describes one worker in the TCP runtime's membership table.
// Dead and departed workers stay listed (their slots are never reused), so
// the table doubles as an incident log.
type WorkerStatus struct {
	ID    int    `json:"id"`
	Addr  string `json:"addr"`
	State string `json:"state"`
	Epoch uint64 `json:"epoch"` // cluster epoch at this member's last transition
}

// Workers returns the TCP runtime's membership table, or nil under the
// simulated runtime (whose workers are implicit) and before the backend's
// first use.
func (s *Session) Workers() []WorkerStatus {
	s.rtMu.Lock()
	rtm := s.rtm
	s.rtMu.Unlock()
	mp, ok := rtm.(interface{ Members() []membership.Member })
	if !ok {
		return nil
	}
	ms := mp.Members()
	out := make([]WorkerStatus, len(ms))
	for i, m := range ms {
		out[i] = WorkerStatus{ID: m.ID, Addr: m.Addr, State: m.State.String(), Epoch: m.Epoch}
	}
	return out
}
