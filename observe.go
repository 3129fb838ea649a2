package fuseme

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"

	"fuseme/internal/obs"
)

// Option configures a Session at construction time.
type Option func(*Session) error

// EnvCacheBytes sets the per-worker block-cache budget in bytes (see
// WithBlockCache). Zero or unset disables caching.
const EnvCacheBytes = "FUSEME_CACHE_BYTES"

// EnvJournal names a JSONL file to sink the query event journal to (see
// WithJournal). Unset leaves journaling off.
const EnvJournal = "FUSEME_JOURNAL"

// WithTracing keeps every query's journal events, plus a task event per task
// attempt with the body's fetch/kernel/cache/send sub-spans, until
// ResetObservations; Session.WriteTrace renders them (obs.ChromeTrace). A
// WithJournal sink receives the same events, so it renders the same trace
// offline. Without this option the instrumentation reduces to pointer checks.
func WithTracing() Option {
	return func(s *Session) error {
		s.obs.Trace, s.timeline = true, new(obs.Timeline)
		return nil
	}
}

// WithJournal attaches an event journal (see NewJournal): every Query
// appends its lifecycle — planned (chosen plan + predicted cost), stage
// start/end with each stage's flight record (predicted-vs-measured costs),
// completion — as structured events. Share one journal across sessions (the serve daemon
// does) to get a single queryable stream. The journal and its sink stay the
// caller's: Session.Close flushes the sink, never closes it. Environment
// equivalent for a file sink: FUSEME_JOURNAL.
func WithJournal(j *obs.Journal) Option {
	return func(s *Session) error {
		if j == nil {
			return errors.New("fuseme: WithJournal(nil)")
		}
		s.journal = j
		return nil
	}
}

// NewJournal creates an event journal holding the last ring events in memory
// (non-positive selects the 4096 default) and, when sink is non-nil, writing
// every event to it as one JSON line (read back with obs.ReadEvents;
// obs.CalibrationFromEvents rebuilds a calibration report from the lines
// offline). Attach it to one or more sessions with WithJournal.
func NewJournal(ring int, sink io.Writer) *obs.Journal { return obs.NewJournal(ring, sink) }

// resolveJournal falls back to the FUSEME_JOURNAL file sink when no journal
// option was given — a deployment path, so the one journal file the session
// itself creates (or truncates) and closes.
func (s *Session) resolveJournal() error {
	if s.journal != nil {
		return nil
	}
	if path := os.Getenv(EnvJournal); path != "" {
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("fuseme: %s: %w", EnvJournal, err)
		}
		s.journal, s.journalFile = obs.NewJournal(0, f), f
	}
	return nil
}

// Journal returns the session's event journal, or nil when journaling is
// off.
func (s *Session) Journal() *obs.Journal { return s.journal }

// SetQueryLog routes the next Query call's lifecycle events into q instead
// of auto-numbering a log on the session's journal — the serve daemon uses
// this to interleave its admission events (received/queued/admitted) with
// the session's planning and stage events under one query id. Consumed by
// exactly one Query; like Bind, not safe concurrently with Query.
func (s *Session) SetQueryLog(q *obs.QueryLog) { s.pendingQLog = q }

// WithMetricsAddr enables the metrics registry and serves it over HTTP on
// addr (host:port; use ":0" for an ephemeral port): Prometheus text on
// /metrics, a JSON snapshot plus live runtime stats on /debug/stats. The
// bound address is available from Session.MetricsAddr. An empty addr enables
// the registry without an endpoint; read it with Session.MetricsSnapshot.
func WithMetricsAddr(addr string) Option {
	return func(s *Session) error {
		if s.obs.Metrics == nil {
			s.obs.Metrics = obs.NewRegistry()
		}
		s.metricsAddr = addr
		return nil
	}
}

// WithBlockCache enables the worker-resident block cache for loop-invariant
// inputs with a per-worker byte budget (0 disables; the effective budget is
// clamped to the per-task memory budget θt). Iterative workloads whose
// queries re-consume an unchanged input (e.g. the data matrix X in GNMF)
// skip re-shipping its blocks from the second iteration on; results are
// bit-identical with the cache on or off. Under the TCP runtime every stage
// carries the budget to the workers, which size their one cache from it, so
// hits count as they do on the simulated cluster; a worker running a stage
// of a session without a budget uses no cache. Default 0, or
// FUSEME_CACHE_BYTES.
func WithBlockCache(bytes int64) Option {
	return func(s *Session) error {
		if bytes < 0 {
			return fmt.Errorf("fuseme: BlockCache budget = %d, must be >= 0", bytes)
		}
		s.cc.CacheBytes = bytes
		return nil
	}
}

// resolveCacheBytes fixes the one setting with more than one source, after
// the options ran: cache bytes (option > environment > off).
func (s *Session) resolveCacheBytes() error {
	var n int64
	if env := os.Getenv(EnvCacheBytes); env != "" {
		var err error
		if n, err = strconv.ParseInt(env, 10, 64); err != nil || n < 0 {
			return fmt.Errorf("fuseme: %s=%q: want a non-negative byte count", EnvCacheBytes, env)
		}
	}
	if s.cc.CacheBytes < 0 {
		s.cc.CacheBytes = n
	}
	return nil
}

// startMetricsServer starts the /metrics + /debug/stats endpoint if
// WithMetricsAddr was given. The stats closure reads the runtime lazily so
// the endpoint serves live counters mid-query.
func (s *Session) startMetricsServer() error {
	if s.metricsAddr == "" || s.metricsSrv != nil {
		return nil
	}
	srv, err := obs.ServeMetrics(s.metricsAddr, s.obs.Metrics, func() any {
		s.rtMu.Lock()
		rtm := s.rtm
		s.rtMu.Unlock()
		if rtm == nil {
			return nil
		}
		return rtm.Stats()
	})
	if err != nil {
		return fmt.Errorf("fuseme: metrics endpoint: %w", err)
	}
	s.metricsSrv = srv
	return nil
}

// MetricsAddr returns the bound address of the metrics endpoint, or "" when
// WithMetricsAddr was not used.
func (s *Session) MetricsAddr() string { return s.metricsSrv.Addr() }

// MetricsSnapshot returns the current values of every session metric. The
// registry must be enabled with WithMetricsAddr.
func (s *Session) MetricsSnapshot() (obs.Snapshot, error) {
	if s.obs.Metrics == nil {
		return obs.Snapshot{}, errors.New("fuseme: metrics not enabled (use WithMetricsAddr; an empty address needs no endpoint)")
	}
	return s.obs.Metrics.Snapshot(), nil
}

// WriteTrace renders the events of every query since the last
// ResetObservations as Chrome trace_event JSON (obs.ChromeTrace), loadable
// in chrome://tracing or ui.perfetto.dev. Tracing must be enabled with
// WithTracing.
func (s *Session) WriteTrace(w io.Writer) error {
	doc, err := s.chromeTrace()
	if err == nil {
		_, err = w.Write(doc)
	}
	return err
}

// WriteTraceFile is WriteTrace to a file path. An untraced session creates
// no file.
func (s *Session) WriteTraceFile(path string) error {
	doc, err := s.chromeTrace()
	if err == nil {
		err = os.WriteFile(path, doc, 0o666)
	}
	return err
}

// chromeTrace renders the session's timeline.
func (s *Session) chromeTrace() ([]byte, error) {
	if s.timeline == nil {
		return nil, errors.New("fuseme: tracing not enabled (use WithTracing)")
	}
	return obs.ChromeTrace(s.timeline.Events())
}

// Report renders the cost-model calibration report: every executed
// operator's predicted NetEst/ComEst/MemEst joined against its measured
// wire bytes, flops and stage time, with effective cluster bandwidths
// back-solved from the measurements. Accumulates across queries (iterative
// workloads aggregate per operator) until ResetObservations.
func (s *Session) Report() string {
	return s.CalibrationReport().String()
}

// CalibrationReport returns the structured form of Report. When the metrics
// registry is on, the report also carries the per-task latency distribution
// (count, p50/p95/p99, max) under TaskLatency.
func (s *Session) CalibrationReport() *obs.Report {
	// Judged against the cluster the planner priced on.
	rep := s.obs.Calib.Report(s.cc)
	if snap := s.obs.Metrics.Histogram(obs.MTaskSeconds).Snapshot(); snap.Count > 0 {
		rep.TaskLatency = &snap
	}
	return rep
}

// ResetObservations clears the traced events, calibration records, metric
// counters (gauges keep their last value) and the per-worker slowdown
// history.
func (s *Session) ResetObservations() {
	s.obs.Calib.Reset()
	s.obs.Metrics.Reset()
	s.timeline.Reset()
}

// ExplainCosts compiles a script and returns the physical plan description
// followed by each fused operator's predicted cost breakdown — the chosen
// (P,Q,R) with its network, computation and per-task memory terms under the
// constants the compile priced with. This is what `fuseme -explain` prints.
func (s *Session) ExplainCosts(script string) (string, error) {
	cq, err := s.compile(script)
	if err != nil {
		return "", err
	}
	return cq.pp.Describe() + cq.pp.DescribeCosts(cq.rtm.Config()), nil
}
