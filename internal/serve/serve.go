// Package serve turns the fuseme library into a multi-tenant query service:
// one warm cluster (sim or TCP) accepts many concurrent plan submissions over
// HTTP/JSON. Three mechanisms make concurrent tenants safe and fair:
//
//   - Admission control: the cluster memory budget (Nodes x TasksPerNode x
//     θt by default) is carved into per-tenant reservations; a submission
//     that would overcommit its tenant's carve-out queues (bounded, with a
//     deadline) or is rejected with 429 + Retry-After instead of OOMing the
//     cluster.
//   - Fair scheduling: every session in the pool shares one dispatch gate
//     (internal/sched), and with it the nodes' lanes — a node runs at most
//     TasksPerNode tasks of all sessions at once — and the tenants' turn: a
//     freed lane goes to the stage tasks of concurrent plans by weighted
//     round-robin across tenants, so one giant GNMF job cannot starve small
//     queries.
//   - Plan cache: sessions share one compiled-plan cache
//     (internal/plancache), so repeat queries — even with renamed variables —
//     skip CFG exploration entirely.
//
// Per-tenant metrics (fuseme_tenant_*) and the plan-cache counters ride the
// shared obs registry, served on /metrics and /debug/stats next to the query
// API. Command fuseme-serve wraps this package as a daemon.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fuseme"
	"fuseme/internal/obs"
)

// Tenant declares one tenant of the service.
type Tenant struct {
	// Name identifies the tenant in metrics and scheduling.
	Name string
	// Token authenticates the tenant's requests (Authorization: Bearer or
	// X-FuseMe-Token). Empty means the tenant needs no token.
	Token string
	// Weight is the tenant's weighted-round-robin scheduling share and, when
	// QuotaBytes is zero, its proportional share of the memory budget.
	// Values below one are treated as one.
	Weight int
	// QuotaBytes fixes the tenant's memory reservation; zero derives it from
	// the budget in proportion to Weight.
	QuotaBytes int64
}

// Config configures a Server.
type Config struct {
	// Cluster is the warm cluster every tenant session runs on.
	Cluster fuseme.ClusterConfig
	// Engine selects the planning engine (default EngineFuseME); New
	// rejects one that does not exist.
	Engine fuseme.Engine
	// Tenants lists the accepted tenants. Empty runs the service open: one
	// implicit "default" tenant owning the whole budget, no token required.
	Tenants []Tenant
	// Sessions bounds the session pool — the number of plans that can
	// execute concurrently (default 8).
	Sessions int
	// BudgetBytes is the cluster memory budget carved into tenant
	// reservations (default Nodes x TasksPerNode x TaskMemBytes).
	BudgetBytes int64
	// QueueDepth bounds each tenant's admission queue (default 16).
	QueueDepth int
	// QueueWait bounds how long a queued submission waits for memory before
	// 429 (default 10s).
	QueueWait time.Duration
	// JournalPath, when non-empty, makes the server's query event journal
	// (obs.DefaultJournalRing events in memory) also sink events to a JSONL
	// file at this path (flushed on Shutdown).
	JournalPath string
}

// Server is the multi-tenant query service.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	pc      *fuseme.PlanCache
	sched   *fuseme.Scheduler
	adm     *admission
	tenants []Tenant // normalized
	byToken map[string]*Tenant
	open    *Tenant // the implicit tenant when none are configured

	mux *http.ServeMux

	sessMu   sync.Mutex
	sessions []*fuseme.Session // every session ever created, for Close
	free     chan *fuseme.Session
	created  int

	// drainMu guards the drain flag and the in-flight count so admission
	// and shutdown are atomic: a submission either sees the flag or is
	// counted and waited for.
	drainMu  sync.Mutex
	draining bool
	inflight int
	idle     chan struct{} // closed when draining and inflight hits zero

	active atomic.Int64 // queries currently executing (gauge mirror)

	dsMu     sync.Mutex
	datasets map[string]*fuseme.Matrix

	// Per-query observability: the shared event journal every lifecycle
	// event lands in, which GET /v1/queries folds, and the last query id.
	journal     *obs.Journal
	journalFile *os.File // Config.JournalPath sink, closed on Shutdown
	nextQuery   atomic.Int64
}

// tenantCounters are the per-tenant counter families /v1/status reports.
// New creates each tenant's series, so a tenant's row and /metrics read the
// same counters, at zero before its first query.
var tenantCounters = []string{
	obs.MTenantQueries, obs.MTenantErrors, obs.MTenantRejects,
	obs.MTenantPlanHits, obs.MTenantTasks, obs.MTenantBytes,
}

// New builds a Server. It does not listen; mount Handler on an http.Server
// (cmd/fuseme-serve) or call it directly in tests.
func New(cfg Config) (*Server, error) {
	if cfg.Sessions <= 0 {
		cfg.Sessions = 8
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = 10 * time.Second
	}
	if cfg.BudgetBytes <= 0 {
		cfg.BudgetBytes = int64(cfg.Cluster.Nodes) * int64(cfg.Cluster.TasksPerNode) * cfg.Cluster.TaskMemBytes
	}
	if cfg.BudgetBytes <= 0 {
		return nil, errors.New("serve: cluster memory budget is zero (set Config.BudgetBytes or the cluster dimensions)")
	}
	if err := cfg.Engine.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		reg:      obs.NewRegistry(),
		pc:       fuseme.NewPlanCache(0), // the pool shares one default-size cache
		byToken:  map[string]*Tenant{},
		datasets: map[string]*fuseme.Matrix{},
		free:     make(chan *fuseme.Session, cfg.Sessions),
	}
	var sink io.Writer
	if cfg.JournalPath != "" {
		f, err := os.Create(cfg.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("serve: journal: %w", err)
		}
		sink, s.journalFile = f, f
	}
	s.journal = obs.NewJournal(obs.DefaultJournalRing, sink)
	s.sched = fuseme.NewScheduler(cfg.Cluster.Nodes * cfg.Cluster.TasksPerNode)

	// Normalize tenants and carve the budget.
	tenants := cfg.Tenants
	if len(tenants) == 0 {
		tenants = []Tenant{{Name: "default", Weight: 1}}
	}
	totalWeight := 0
	seen := map[string]bool{}
	for i := range tenants {
		if tenants[i].Name == "" {
			return nil, fmt.Errorf("serve: tenant %d has no name", i)
		}
		if seen[tenants[i].Name] {
			return nil, fmt.Errorf("serve: duplicate tenant %q", tenants[i].Name)
		}
		seen[tenants[i].Name] = true
		if tenants[i].Weight < 1 {
			tenants[i].Weight = 1
		}
		totalWeight += tenants[i].Weight
	}
	limits := make(map[string]int64, len(tenants))
	for i := range tenants {
		q := tenants[i].QuotaBytes
		if q <= 0 {
			q = cfg.BudgetBytes * int64(tenants[i].Weight) / int64(totalWeight)
		}
		tenants[i].QuotaBytes = q
		limits[tenants[i].Name] = q
	}
	s.tenants = tenants
	for i := range s.tenants {
		t := &s.tenants[i]
		s.reg.Gauge(obs.TenantSeries(obs.MTenantReservedByte, t.Name)).Set(float64(t.QuotaBytes))
		for _, family := range tenantCounters {
			s.tenantCounter(family, t.Name)
		}
		if t.Token != "" {
			if _, dup := s.byToken[t.Token]; dup {
				return nil, fmt.Errorf("serve: tenants share a token")
			}
			s.byToken[t.Token] = t
		}
	}
	if len(cfg.Tenants) == 0 {
		s.open = &s.tenants[0]
	}
	s.adm = newAdmission(limits)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/query", s.handleQuery)
	s.mux.HandleFunc("/v1/queries", s.handleQueries)
	s.mux.HandleFunc("/v1/queries/", s.handleQueries)
	s.mux.HandleFunc("/v1/status", s.handleStatus)
	s.mux.Handle("/metrics", obs.MetricsHandler(s.reg))
	s.mux.Handle("/debug/stats", obs.StatsHandler(s.reg, "status", func() any { return s.status() }))
	return s, nil
}

// Handler returns the service's HTTP handler: the /v1 query API plus the
// /metrics and /debug/stats observability endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the shared metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Journal returns the shared query event journal.
func (s *Server) Journal() *obs.Journal { return s.journal }

// PlanCacheStats returns the shared plan cache's counters.
func (s *Server) PlanCacheStats() fuseme.PlanCacheStats { return s.pc.Stats() }

// RegisterDataset publishes a named matrix that any tenant may reference as
// {"dataset": name} in a query's inputs. Build matrices with
// fuseme.NewDenseMatrix / NewRandomDenseMatrix / NewRandomSparseMatrix using
// the server's cluster block size.
func (s *Server) RegisterDataset(name string, m *fuseme.Matrix) {
	s.dsMu.Lock()
	s.datasets[name] = m
	s.dsMu.Unlock()
}

// dataset looks up a named dataset.
func (s *Server) dataset(name string) (*fuseme.Matrix, bool) {
	s.dsMu.Lock()
	m, ok := s.datasets[name]
	s.dsMu.Unlock()
	return m, ok
}

// acquireSession takes a pooled session, creating one if the pool has not
// reached its bound yet.
func (s *Server) acquireSession() (*fuseme.Session, error) {
	select {
	case sess := <-s.free:
		return sess, nil
	default:
	}
	s.sessMu.Lock()
	if s.created < s.cfg.Sessions {
		s.created++
		s.sessMu.Unlock()
		// The server's journal, so a session never opens FUSEME_JOURNAL's
		// file itself: served queries log through SetQueryLog into it.
		sess, err := fuseme.NewSession(s.cfg.Cluster, fuseme.WithRegistry(s.reg), fuseme.WithScheduler(s.sched),
			fuseme.WithJournal(s.journal), fuseme.WithPlanCache(s.pc))
		if err != nil {
			s.sessMu.Lock()
			s.created--
			s.sessMu.Unlock()
			return nil, err
		}
		_ = sess.SetEngine(s.cfg.Engine) // New validated it: it cannot fail
		s.sessMu.Lock()
		s.sessions = append(s.sessions, sess)
		s.sessMu.Unlock()
		return sess, nil
	}
	s.sessMu.Unlock()
	return <-s.free, nil
}

// releaseSession returns a session to the pool.
func (s *Server) releaseSession(sess *fuseme.Session) { s.free <- sess }

// beginRequest counts a submission as in flight unless the service is
// draining.
func (s *Server) beginRequest() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return false
	}
	s.inflight++
	return true
}

// endRequest retires an in-flight submission, waking Shutdown when the last
// one finishes during a drain.
func (s *Server) endRequest() {
	s.drainMu.Lock()
	s.inflight--
	if s.inflight == 0 && s.draining && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
	s.drainMu.Unlock()
}

// Shutdown drains the service: new submissions are rejected with 503 while
// in-flight plans run to completion (or ctx expires), then every pooled
// session is closed. Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	var wait chan struct{}
	if s.inflight > 0 {
		if s.idle == nil {
			s.idle = make(chan struct{})
		}
		wait = s.idle
	}
	s.drainMu.Unlock()
	var err error
	if wait != nil {
		select {
		case <-wait:
		case <-ctx.Done():
			err = fmt.Errorf("serve: drain deadline expired with plans still in flight: %w", ctx.Err())
		}
	}
	s.sessMu.Lock()
	sessions := s.sessions
	s.sessions = nil
	journalFile := s.journalFile
	s.journalFile = nil
	s.sessMu.Unlock()
	for _, sess := range sessions {
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
	}
	if journalFile != nil {
		if cerr := s.journal.Flush(); err == nil {
			err = cerr
		}
		if cerr := journalFile.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Close is Shutdown with a 5-second drain deadline.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining
}

// authenticate resolves the request's tenant from its token header.
func (s *Server) authenticate(r *http.Request) (*Tenant, error) {
	tok := r.Header.Get("X-FuseMe-Token")
	if tok == "" {
		if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
			tok = strings.TrimPrefix(auth, "Bearer ")
		}
	}
	if s.open != nil {
		return s.open, nil
	}
	if tok == "" {
		return nil, errors.New("serve: missing tenant token (X-FuseMe-Token or Authorization: Bearer)")
	}
	if t := s.byToken[tok]; t != nil {
		return t, nil
	}
	return nil, errors.New("serve: unknown tenant token")
}

// httpError is the JSON error envelope.
type httpError struct {
	Error string `json:"error"`
}

// writeJSON replies with v as one compact line: indenting a reply cost more
// than building it (pipe a reply through a formatter to read it).
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// retryAfterSeconds is the hint attached to 429/503 responses.
const retryAfterSeconds = 1

func writeRetryable(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds))
	writeJSON(w, code, httpError{Error: msg})
}

// tenantCounter returns the tenant's series of a counter family.
func (s *Server) tenantCounter(family, tenant string) *obs.Counter {
	return s.reg.Counter(obs.TenantSeries(family, tenant))
}

// TenantStatus is one tenant's row in the /v1/status document.
type TenantStatus struct {
	Name          string `json:"name"`
	Weight        int    `json:"weight"`
	ReservedBytes int64  `json:"reserved_bytes"`
	InFlightBytes int64  `json:"in_flight_bytes"`
	QueueDepth    int    `json:"queue_depth"`
	Queries       int64  `json:"queries"`
	Errors        int64  `json:"errors"`
	Rejects       int64  `json:"rejects"`
	PlanCacheHits int64  `json:"plan_cache_hits"`
	Tasks         int64  `json:"tasks"`
	WireBytes     int64  `json:"wire_bytes"`
}

// Status is the /v1/status document.
type Status struct {
	Draining     bool                  `json:"draining"`
	Sessions     int                   `json:"sessions"`
	SessionsBusy int                   `json:"sessions_busy"`
	PlanCache    fuseme.PlanCacheStats `json:"plan_cache"`
	Tenants      []TenantStatus        `json:"tenants"`
	// Scheduler is each tenant's turn on the pool's dispatch gate: the tasks
	// its lanes took (granted) and its lanes waiting for a task their stage
	// has queued (waiting); RunningTasks is the tasks holding a node's lane.
	Scheduler    []fuseme.TenantSchedStats `json:"scheduler"`
	RunningTasks int                       `json:"running_tasks"`
	// Workers is the TCP runtime's membership table (state, epoch per
	// worker); empty under the simulated runtime. Dead and departed
	// workers stay listed — slots are never reused.
	Workers []fuseme.WorkerStatus `json:"workers,omitempty"`
}

func (s *Server) status() Status {
	st := Status{Draining: s.Draining(), PlanCache: s.pc.Stats()}
	s.sessMu.Lock()
	st.Sessions = s.created
	s.sessMu.Unlock()
	st.SessionsBusy = st.Sessions - len(s.free)
	st.Scheduler, st.RunningTasks = s.sched.TenantStats()
	for _, t := range s.tenants {
		used, queued := s.adm.Usage(t.Name)
		n := func(family string) int64 { return s.tenantCounter(family, t.Name).Value() }
		st.Tenants = append(st.Tenants, TenantStatus{
			Name: t.Name, Weight: t.Weight, ReservedBytes: t.QuotaBytes,
			InFlightBytes: used, QueueDepth: queued,
			Queries: n(obs.MTenantQueries), Errors: n(obs.MTenantErrors), Rejects: n(obs.MTenantRejects),
			PlanCacheHits: n(obs.MTenantPlanHits), Tasks: n(obs.MTenantTasks), WireBytes: n(obs.MTenantBytes),
		})
	}
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Name < st.Tenants[j].Name })
	s.sessMu.Lock()
	pool := append([]*fuseme.Session(nil), s.sessions...)
	s.sessMu.Unlock()
	for _, sess := range pool {
		if ws := sess.Workers(); ws != nil {
			st.Workers = ws
			break
		}
	}
	return st
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, httpError{Error: "GET only"})
		return
	}
	writeJSON(w, http.StatusOK, s.status())
}
