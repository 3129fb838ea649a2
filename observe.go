package fuseme

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"fuseme/internal/core"
	"fuseme/internal/obs"
	"fuseme/internal/rt/remote"
)

// Option configures a Session at construction time.
type Option func(*Session) error

// EnvMaxTaskRetries overrides the task retry budget (non-negative integer).
const EnvMaxTaskRetries = "FUSEME_MAX_TASK_RETRIES"

// defaultMaxTaskRetries is the Spark-like retry budget applied when neither
// WithMaxTaskRetries nor FUSEME_MAX_TASK_RETRIES is set.
const defaultMaxTaskRetries = 2

// EnvCacheBytes sets the per-worker block-cache budget in bytes (see
// WithBlockCache). Zero or unset disables caching.
const EnvCacheBytes = "FUSEME_CACHE_BYTES"

// EnvKernelThreads overrides the intra-task kernel thread count (see
// ClusterConfig.KernelThreads). Zero means auto-size against the machine's
// cores.
const EnvKernelThreads = "FUSEME_KERNEL_THREADS"

// EnvPrefetchBytes overrides the per-task prefetch admission budget in
// bytes (see ClusterConfig.PrefetchBytes). Zero or unset means the 64 MiB
// default; a negative value runs without prefetch.
const EnvPrefetchBytes = "FUSEME_PREFETCH_BYTES"

// EnvJournal names a JSONL file to sink the query event journal to (see
// WithJournal). Unset leaves journaling off.
const EnvJournal = "FUSEME_JOURNAL"

// WithTracing enables the span recorder: plan, stage and task spans are
// collected and can be exported with Session.WriteTrace. Without this option
// the recorder is nil and the instrumentation reduces to pointer checks.
func WithTracing() Option {
	return func(s *Session) error {
		s.obs.Trace = obs.NewRecorder()
		return nil
	}
}

// WithFlightRecorder enables the per-stage flight recorder, appending one
// JSON line per executed stage to w: the planner's predicted
// network/computation/memory costs and chosen (P,Q,R) next to the stage's
// measured wall time, wire bytes and cache savings. w stays the caller's: it
// is flushed on Session.Close, never closed. Read a file of these lines back
// with obs.ReadFlightFile / obs.CalibrationFromFlight, or diff runs offline.
func WithFlightRecorder(w io.Writer) Option {
	return func(s *Session) error {
		if w == nil {
			return errors.New("fuseme: WithFlightRecorder(nil)")
		}
		s.obs.Flight = obs.NewJSONL(w)
		return nil
	}
}

// WithJournal attaches an event journal (see NewJournal): every Query
// appends its lifecycle — planned (chosen plan + predicted cost), replans,
// stage start/end with predicted-vs-measured costs, completion — as
// structured events. Share one journal across sessions (the serve daemon
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
// every event to it as one JSON line (read back with obs.ReadEvents). Attach
// it to one or more sessions with WithJournal.
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

// WithMetrics enables the in-process metrics registry without serving it
// over HTTP; read it with Session.MetricsSnapshot.
func WithMetrics() Option {
	return func(s *Session) error {
		if s.obs.Metrics == nil {
			s.obs.Metrics = obs.NewRegistry()
		}
		return nil
	}
}

// WithMetricsAddr enables the metrics registry and serves it over HTTP on
// addr (host:port; use ":0" for an ephemeral port): Prometheus text on
// /metrics, a JSON snapshot plus live runtime stats on /debug/stats. The
// bound address is available from Session.MetricsAddr.
func WithMetricsAddr(addr string) Option {
	return func(s *Session) error {
		if s.obs.Metrics == nil {
			s.obs.Metrics = obs.NewRegistry()
		}
		s.metricsAddr = addr
		return nil
	}
}

// WithMaxTaskRetries overrides how many times a failed task is re-attempted
// before its stage fails (default 2, or FUSEME_MAX_TASK_RETRIES).
func WithMaxTaskRetries(n int) Option {
	return func(s *Session) error {
		if n < 0 {
			return fmt.Errorf("fuseme: MaxTaskRetries = %d, must be >= 0", n)
		}
		s.retries = n
		return nil
	}
}

// WithBlockCache enables the worker-resident block cache for loop-invariant
// inputs with a per-worker byte budget (0 disables; the effective budget is
// clamped to the per-task memory budget θt). Iterative workloads whose
// queries re-consume an unchanged input (e.g. the data matrix X in GNMF)
// skip re-shipping its blocks from the second iteration on; results are
// bit-identical with the cache on or off. Under the TCP runtime the session
// budget must match the budget the workers were started with
// (fuseme-worker -cache-bytes) for hit accounting to line up. Default 0, or
// FUSEME_CACHE_BYTES.
func WithBlockCache(bytes int64) Option {
	return func(s *Session) error {
		if bytes < 0 {
			return fmt.Errorf("fuseme: BlockCache budget = %d, must be >= 0", bytes)
		}
		s.cacheBytes = bytes
		return nil
	}
}

// WithHeartbeat overrides the TCP runtime's worker heartbeat: how often the
// coordinator pings each worker and how long it waits for the reply. The
// timeout must exceed the interval. Defaults: 500ms / 2s, or the
// FUSEME_HEARTBEAT_INTERVAL / FUSEME_HEARTBEAT_TIMEOUT environment
// variables.
func WithHeartbeat(interval, timeout time.Duration) Option {
	return func(s *Session) error {
		s.rcfg.HeartbeatInterval = interval
		s.rcfg.HeartbeatTimeout = timeout
		return s.rcfg.Validate()
	}
}

// WithCacheReplicas sets how many workers hold each hot cached block on the
// TCP runtime, including the primary. The default 1 disables replication
// (and keeps cache-hit accounting identical to the simulated backend);
// k > 1 pushes each newly cached loop-invariant block to k-1 secondary
// holders so a single worker loss no longer cold-starts the next iteration.
// Environment override: FUSEME_CACHE_REPLICAS.
func WithCacheReplicas(k int) Option {
	return func(s *Session) error {
		if k < 1 {
			return fmt.Errorf("fuseme: CacheReplicas = %d, must be >= 1", k)
		}
		s.rcfg.CacheReplicas = k
		return s.rcfg.Validate()
	}
}

// maxTaskRetries resolves the retry budget: option > environment > default.
func (s *Session) maxTaskRetries() (int, error) {
	if s.retries >= 0 {
		return s.retries, nil
	}
	if env := os.Getenv(EnvMaxTaskRetries); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("fuseme: %s=%q: want a non-negative integer", EnvMaxTaskRetries, env)
		}
		return n, nil
	}
	return defaultMaxTaskRetries, nil
}

// blockCacheBytes resolves the cache budget: option > environment > disabled.
func (s *Session) blockCacheBytes() (int64, error) {
	if s.cacheBytes >= 0 {
		return s.cacheBytes, nil
	}
	if env := os.Getenv(EnvCacheBytes); env != "" {
		n, err := strconv.ParseInt(env, 10, 64)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("fuseme: %s=%q: want a non-negative byte count", EnvCacheBytes, env)
		}
		return n, nil
	}
	return 0, nil
}

// prefetchBytesSetting resolves the prefetch budget: environment >
// ClusterConfig field (whose zero means the built-in default).
func (s *Session) prefetchBytesSetting() (int64, error) {
	if env := os.Getenv(EnvPrefetchBytes); env != "" {
		n, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("fuseme: %s=%q: want a byte count (negative disables prefetch)", EnvPrefetchBytes, env)
		}
		return n, nil
	}
	return s.cfg.PrefetchBytes, nil
}

// kernelThreadsSetting resolves the intra-task thread count: environment >
// ClusterConfig field (which defaults to zero = auto).
func (s *Session) kernelThreadsSetting() (int, error) {
	if env := os.Getenv(EnvKernelThreads); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("fuseme: %s=%q: want a non-negative integer", EnvKernelThreads, env)
		}
		return n, nil
	}
	return s.cfg.KernelThreads, nil
}

// remoteConfig resolves the TCP transport tuning: environment overrides
// first, then explicit session options on top.
func (s *Session) remoteConfig() (remote.Config, error) {
	cfg, err := remote.DefaultConfig().FromEnv()
	if err != nil {
		return cfg, err
	}
	if s.rcfg.HeartbeatInterval != 0 {
		cfg.HeartbeatInterval = s.rcfg.HeartbeatInterval
	}
	if s.rcfg.HeartbeatTimeout != 0 {
		cfg.HeartbeatTimeout = s.rcfg.HeartbeatTimeout
	}
	if s.rcfg.CacheReplicas != 0 {
		cfg.CacheReplicas = s.rcfg.CacheReplicas
	}
	return cfg, cfg.Validate()
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
		return rtm.Stats().View()
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
// registry must be enabled with WithMetrics or WithMetricsAddr.
func (s *Session) MetricsSnapshot() (obs.Snapshot, error) {
	if s.obs.Metrics == nil {
		return obs.Snapshot{}, errors.New("fuseme: metrics not enabled (use WithMetrics or WithMetricsAddr)")
	}
	return s.obs.Metrics.Snapshot(), nil
}

// WriteTrace exports the recorded spans as Chrome trace_event JSON, loadable
// in chrome://tracing or ui.perfetto.dev. Tracing must be enabled with
// WithTracing.
func (s *Session) WriteTrace(w io.Writer) error {
	if s.obs.Trace == nil {
		return errors.New("fuseme: tracing not enabled (use WithTracing)")
	}
	return s.obs.Trace.WriteChromeTrace(w)
}

// WriteTraceFile is WriteTrace to a file path.
func (s *Session) WriteTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
	rep := s.obs.Calib.Report(s.calibModel())
	if s.obs.Metrics != nil {
		if snap := s.obs.Metrics.Histogram(obs.MTaskSeconds).Snapshot(); snap.Count > 0 {
			rep.TaskLatency = &snap
		}
	}
	return rep
}

// calibModel is the cluster model calibration measurements are judged
// against: the configured constants with B̂c scaled by explicit kernel
// threads, matching what the planner used.
func (s *Session) calibModel() obs.ClusterModel {
	cc, _ := s.clusterConfig() // an invalid setting fails NewSession on its own
	return core.EqModel(cc)
}

// ResetObservations clears accumulated spans, calibration records and metric
// counters (gauges keep their last value).
func (s *Session) ResetObservations() { s.obs.Reset() }

// ExplainCosts compiles a script and returns the physical plan description
// followed by each fused operator's predicted cost breakdown — the chosen
// (P,Q,R) with its network, computation and per-task memory terms under the
// same constants the compile priced with: calibration-learned bandwidths
// when a store covers the session's cluster shape (marked "learned" in the
// header), the configured constants otherwise. This is what
// `fuseme -explain` prints.
func (s *Session) ExplainCosts(script string) (string, error) {
	cq, err := s.compile(script)
	if err != nil {
		return "", err
	}
	cc := cq.rtm.Config()
	cc.LearnedNetBandwidth, cc.LearnedCompBandwidth = s.learnedBandwidths()
	return cq.pp.Describe() + cq.pp.DescribeCosts(cc), nil
}
