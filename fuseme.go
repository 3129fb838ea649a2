// Package fuseme is a distributed matrix computation engine based on
// cuboid-based fused operators (CFO) and cuboid-based fusion plan generation
// (CFG), reproducing the system of Han, Lee and Kim, "FuseME: Distributed
// Matrix Computation Engine based on Cuboid-based Fused Operator and Plan
// Generation" (SIGMOD 2022).
//
// The engine executes matrix queries written in a small DML-like language
// over blocked matrices on a simulated cluster: local arithmetic is real,
// while placement, network transfer and per-task memory are metered against
// a configurable cluster model (nodes, tasks, memory budget, bandwidths).
// Besides the FuseME engine itself, the comparison engines of the paper —
// SystemDS (GEN + BFO/RFO), DistME (CuboidMM, no fusion), MatFast (folded
// operators) and a TensorFlow-XLA approximation — are available for
// benchmarking.
//
// Basic usage:
//
//	sess, _ := fuseme.NewSession(fuseme.LocalClusterConfig())
//	sess.RandomSparse("X", 4000, 4000, 0.01, 1, 5, 42)
//	sess.RandomDense("U", 4000, 100, 0, 1, 43)
//	sess.RandomDense("V", 4000, 100, 0, 1, 44)
//	out, _ := sess.Query(`O = X * log(U %*% t(V) + 1e-3)`)
//	fmt.Println(out["O"].Dims())
//	fmt.Println(sess.LastStats())
package fuseme

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/lang"
	"fuseme/internal/matrix"
	"fuseme/internal/obs"
	"fuseme/internal/plancache"
	"fuseme/internal/rt"
	"fuseme/internal/rt/remote"
)

// ClusterConfig describes the simulated cluster a session runs on.
type ClusterConfig struct {
	Nodes         int     // worker nodes (paper: 8)
	TasksPerNode  int     // concurrent tasks per node (paper: 12)
	TaskMemBytes  int64   // memory budget per task θt (paper: 10 GiB)
	NetBandwidth  float64 // peak network bandwidth per node, bytes/s (paper: 1 Gbps)
	CompBandwidth float64 // peak compute bandwidth per node, flop/s (paper: 546 GFLOPS)
	BlockSize     int     // block width/height (paper: 1000)
	SimTimeLimit  float64 // simulated-seconds limit before ErrTimeout; 0 = none

	// Runtime selects the execution backend: "sim" (default) runs stages
	// in-process on the simulated cluster; "tcp" distributes them over
	// fuseme-worker processes.
	Runtime string
	// Workers lists worker addresses (host:port) for the "tcp" runtime.
	// When empty, the FUSEME_WORKERS environment variable (comma-separated)
	// is consulted.
	Workers []string

	// waveSeconds is the scheduling overhead charged per wave of tasks; zero
	// means defaultWaveSeconds. PaperClusterConfig carries the paper
	// cluster's, so a dry run on it prices waves as the figures do.
	waveSeconds float64
}

// PaperClusterConfig returns the paper's evaluation cluster (Section 6.1).
func PaperClusterConfig() ClusterConfig {
	return fromInternal(cluster.Default())
}

// LocalClusterConfig returns a small configuration suitable for running
// real computations on one machine: 2 nodes x 4 tasks, 64x64 blocks and no
// simulated-time limit.
func LocalClusterConfig() ClusterConfig {
	return ClusterConfig{
		Nodes:         2,
		TasksPerNode:  4,
		TaskMemBytes:  4 << 30,
		NetBandwidth:  1e9,
		CompBandwidth: 50e9,
		BlockSize:     64,
	}
}

func fromInternal(c cluster.Config) ClusterConfig {
	return ClusterConfig{
		Nodes:         c.Nodes,
		TasksPerNode:  c.TasksPerNode,
		TaskMemBytes:  c.TaskMemBytes,
		NetBandwidth:  c.NetBandwidth,
		CompBandwidth: c.CompBandwidth,
		BlockSize:     c.BlockSize,
		SimTimeLimit:  c.SimTimeLimit,
		waveSeconds:   c.TaskOverhead,
	}
}

// defaultWaveSeconds is the scheduling overhead per wave of tasks of a
// cluster that names none: an in-process stage's, not a Spark job's.
const defaultWaveSeconds = 0.005

// defaultMaxTaskRetries is the Spark-like budget of re-attempts a failed task
// gets before its stage fails.
const defaultMaxTaskRetries = 2

func (c ClusterConfig) internal() cluster.Config {
	wave := c.waveSeconds
	if wave == 0 {
		wave = defaultWaveSeconds
	}
	return cluster.Config{
		Nodes:          c.Nodes,
		TasksPerNode:   c.TasksPerNode,
		TaskMemBytes:   c.TaskMemBytes,
		NetBandwidth:   c.NetBandwidth,
		CompBandwidth:  c.CompBandwidth,
		BlockSize:      c.BlockSize,
		SimTimeLimit:   c.SimTimeLimit,
		TaskOverhead:   wave,
		MaxTaskRetries: defaultMaxTaskRetries,
	}
}

// workerList resolves the TCP runtime's worker addresses.
func (c ClusterConfig) workerList() []string {
	if len(c.Workers) > 0 {
		return c.Workers
	}
	env := os.Getenv("FUSEME_WORKERS")
	if env == "" {
		return nil
	}
	var out []string
	for _, a := range strings.Split(env, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// Engine selects the planning/execution strategy of a session.
type Engine string

// Available engines.
const (
	EngineFuseME     Engine = "fuseme"     // CFG + CFO (the paper's system)
	EngineSystemDS   Engine = "systemds"   // GEN fusion + BFO/RFO
	EngineDistME     Engine = "distme"     // CuboidMM, no fusion
	EngineMatFast    Engine = "matfast"    // folded element-wise operators
	EngineTensorFlow Engine = "tensorflow" // XLA-style element-wise fusion
)

// Validate reports an error unless e names an available engine (the empty
// Engine is FuseME), so a caller can reject a configuration before it
// creates a session.
func (e Engine) Validate() error {
	_, err := e.internal()
	return err
}

func (e Engine) internal() (core.Engine, error) {
	switch e {
	case EngineFuseME, "":
		return core.FuseME{}, nil
	case EngineSystemDS:
		return core.SystemDSSim{}, nil
	case EngineDistME:
		return core.DistMESim{}, nil
	case EngineMatFast:
		return core.MatFastSim{}, nil
	case EngineTensorFlow:
		return core.TensorFlowSim{}, nil
	}
	return nil, fmt.Errorf("fuseme: unknown engine %q", string(e))
}

// Errors surfaced by query execution.
var (
	// ErrOutOfMemory reports that an operator's estimated per-task memory
	// exceeded the cluster's task budget.
	ErrOutOfMemory = cluster.ErrOutOfMemory
	// ErrTimeout reports that the simulated time limit was exceeded.
	ErrTimeout = cluster.ErrTimeout
)

// Stats summarises one query execution. It is the runtime's own record,
// cluster.Stats, so a query's stats carry the same fields, and encode to the
// same JSON keys, as a stage's flight record and /debug/stats.
// PrefetchSeconds is always zero: nothing prefetches across tasks, and the
// field stays only until the benchmark stops reading it.
type Stats = cluster.Stats

// Matrix is a blocked matrix bound to a session.
type Matrix struct {
	name string
	b    *block.Matrix
}

// Name returns the name the matrix is bound under (empty for results).
func (m *Matrix) Name() string { return m.name }

// Dims returns rows and columns.
func (m *Matrix) Dims() (rows, cols int) { return m.b.Rows, m.b.Cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.b.At(i, j) }

// NNZ returns the number of stored non-zero elements.
func (m *Matrix) NNZ() int { return m.b.NNZ() }

// Density returns NNZ / (rows*cols).
func (m *Matrix) Density() float64 { return m.b.Density() }

// SizeBytes returns the in-memory footprint.
func (m *Matrix) SizeBytes() int64 { return m.b.SizeBytes() }

// Dense returns the full contents as a row-major slice (rows*cols values).
// Intended for small matrices and tests.
func (m *Matrix) Dense() []float64 {
	return matrix.ToDense(m.b.ToMat()).Data
}

// Write serialises the matrix in the engine's binary format.
func (m *Matrix) Write(w io.Writer) error { return matrix.WriteTo(w, m.b.ToMat()) }

// NewDenseMatrix builds a session-independent dense matrix from a row-major
// value slice, blocked at blockSize. Bind it to any session (with a matching
// block size) via Session.Bind; the serve daemon uses this for shared named
// datasets.
func NewDenseMatrix(rows, cols, blockSize int, values []float64) (*Matrix, error) {
	if len(values) != rows*cols {
		return nil, fmt.Errorf("fuseme: %d values for a %dx%d matrix", len(values), rows, cols)
	}
	if blockSize < 1 {
		return nil, fmt.Errorf("fuseme: block size %d, must be >= 1", blockSize)
	}
	flat := matrix.NewDenseData(rows, cols, values)
	return &Matrix{b: block.FromMat(flat, blockSize)}, nil
}

// NewRandomDenseMatrix builds a session-independent uniformly random dense
// matrix with values in [lo, hi), blocked at blockSize.
func NewRandomDenseMatrix(rows, cols, blockSize int, lo, hi float64, seed int64) *Matrix {
	return &Matrix{b: block.RandomDense(rows, cols, blockSize, lo, hi, seed)}
}

// NewRandomSparseMatrix builds a session-independent uniformly random sparse
// matrix at the given density, blocked at blockSize.
func NewRandomSparseMatrix(rows, cols, blockSize int, density, lo, hi float64, seed int64) *Matrix {
	return &Matrix{b: block.RandomSparse(rows, cols, blockSize, density, lo, hi, seed)}
}

// ReadMatrixFrom reads a session-independent matrix in the engine's binary
// format (see Matrix.Write), blocked at blockSize.
func ReadMatrixFrom(r io.Reader, blockSize int) (*Matrix, error) {
	m, err := matrix.ReadFrom(r)
	if err != nil {
		return nil, err
	}
	if blockSize < 1 {
		return nil, fmt.Errorf("fuseme: block size %d, must be >= 1", blockSize)
	}
	return &Matrix{b: block.FromMat(m, blockSize)}, nil
}

// Session holds bound input matrices, the selected engine and the simulated
// cluster. A session executes one query at a time: a Query issued while
// another is running returns ErrSessionBusy. Close is idempotent and safe
// for concurrent callers; binding inputs concurrently with Query is not.
// Run concurrent queries on separate sessions (see internal/serve).
type Session struct {
	cfg    ClusterConfig
	engine core.Engine
	inputs map[string]*block.Matrix
	last   Stats

	// queryMu serialises Query; a second caller gets ErrSessionBusy rather
	// than corrupting shared per-query state (inputs, stats, obs).
	queryMu sync.Mutex
	// closeMu makes Close idempotent under concurrent callers.
	closeMu sync.Mutex

	// rtMu guards the execution backend, constructed lazily, and the tenant
	// tag (SetTenant) it is given.
	rtMu         sync.Mutex
	rtm          rt.Runtime
	tenant       string
	tenantWeight int

	// cc is cfg with every option and environment override resolved, once,
	// by NewSession: each backend the session builds, every plan it compiles
	// and every report it renders reads it.
	cc cluster.Config

	obs         *obs.Obs    // never nil; components nil unless enabled
	metricsAddr string      // WithMetricsAddr target; "" = no endpoint
	metricsSrv  *obs.Server // running endpoint, if any

	planCache   *PlanCache // WithPlanCache; nil = compile every query
	sched       *Scheduler // WithScheduler; nil = backend-private dispatch
	lastPlanHit bool       // most recent compile came from the plan cache

	journal     *obs.Journal  // WithJournal/FUSEME_JOURNAL; nil = off
	timeline    *obs.Timeline // WithTracing: every event since ResetObservations; nil = off
	journalFile *os.File      // FUSEME_JOURNAL sink, the one file the session opens and closes
	pendingQLog *obs.QueryLog // SetQueryLog target consumed by the next Query
	queryCount  int64         // auto-assigned query ids (q1, q2, ...)
}

// NewSession creates a session on the given cluster configuration, running
// the FuseME engine by default. Options enable observability (WithTracing,
// WithMetricsAddr), the block cache and sharing across sessions
// (WithPlanCache, WithScheduler, WithRegistry). Settings an option or the
// environment can override are read here, once: changing FUSEME_* afterwards
// does not reach the session.
func NewSession(cfg ClusterConfig, opts ...Option) (*Session, error) {
	cc := cfg.internal()
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	cc.CacheBytes = -1 // unset: WithBlockCache, else FUSEME_CACHE_BYTES, else off
	s := &Session{
		cfg:    cfg,
		cc:     cc,
		engine: core.FuseME{},
		inputs: map[string]*block.Matrix{},
		// Calibration is always on: it is stage-level (a stats snapshot per
		// stage) and is what Session.Report joins against.
		obs: &obs.Obs{Calib: obs.NewCalibration()},
	}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if err := s.resolveCacheBytes(); err != nil {
		return nil, err
	}
	if err := s.resolveJournal(); err != nil {
		return nil, err
	}
	if err := s.startMetricsServer(); err != nil {
		return nil, err
	}
	return s, nil
}

// SetEngine switches the planning/execution engine.
func (s *Session) SetEngine(e Engine) error {
	eng, err := e.internal()
	if err != nil {
		return err
	}
	s.engine = eng
	return nil
}

// EngineName returns the active engine's display name.
func (s *Session) EngineName() string { return s.engine.Name() }

// bindBlock registers a blocked matrix under name.
func (s *Session) bindBlock(name string, b *block.Matrix) *Matrix {
	s.inputs[name] = b
	return &Matrix{name: name, b: b}
}

// RandomDense binds a uniformly random dense matrix with values in [lo, hi).
func (s *Session) RandomDense(name string, rows, cols int, lo, hi float64, seed int64) *Matrix {
	return s.bindBlock(name, block.RandomDense(rows, cols, s.cfg.BlockSize, lo, hi, seed))
}

// RandomSparse binds a uniformly random sparse matrix at the given density.
func (s *Session) RandomSparse(name string, rows, cols int, density, lo, hi float64, seed int64) *Matrix {
	return s.bindBlock(name, block.RandomSparse(rows, cols, s.cfg.BlockSize, density, lo, hi, seed))
}

// FromDense binds a matrix from a row-major value slice.
func (s *Session) FromDense(name string, rows, cols int, values []float64) (*Matrix, error) {
	if len(values) != rows*cols {
		return nil, fmt.Errorf("fuseme: %d values for a %dx%d matrix", len(values), rows, cols)
	}
	flat := matrix.NewDenseData(rows, cols, values)
	return s.bindBlock(name, block.FromMat(flat, s.cfg.BlockSize)), nil
}

// ReadMatrix binds a matrix previously serialised with Matrix.WriteTo.
func (s *Session) ReadMatrix(name string, r io.Reader) (*Matrix, error) {
	m, err := matrix.ReadFrom(r)
	if err != nil {
		return nil, err
	}
	return s.bindBlock(name, block.FromMat(m, s.cfg.BlockSize)), nil
}

// LoadMatrix binds a matrix from a file in the engine's binary format.
func (s *Session) LoadMatrix(name, path string) (*Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return s.ReadMatrix(name, f)
}

// Bind re-registers an existing matrix (for example a previous query's
// result) under a new input name.
func (s *Session) Bind(name string, m *Matrix) {
	if m == nil {
		delete(s.inputs, name)
		return
	}
	s.inputs[name] = m.b
}

// Unbind removes an input.
func (s *Session) Unbind(name string) { delete(s.inputs, name) }

// decls derives the language input declarations from the bound matrices.
func (s *Session) decls() map[string]lang.InputDecl {
	decls := make(map[string]lang.InputDecl, len(s.inputs))
	for name, b := range s.inputs {
		decls[name] = lang.InputDecl{Rows: b.Rows, Cols: b.Cols, Sparsity: clampDensity(b.Density())}
	}
	return decls
}

func clampDensity(d float64) float64 {
	if d <= 0 {
		return 1e-9
	}
	if d > 1 {
		return 1
	}
	return d
}

// runtime returns the session's execution backend, constructing it on first
// use: the in-process simulated cluster, or a TCP coordinator connected to
// the configured workers.
func (s *Session) runtime() (rt.Runtime, error) {
	s.rtMu.Lock()
	defer s.rtMu.Unlock()
	if s.rtm != nil {
		return s.rtm, nil
	}
	switch s.cfg.Runtime {
	case "", "sim":
		cl, err := cluster.New(s.cc)
		if err != nil {
			return nil, err
		}
		s.rtm = cl
	case "tcp":
		workers := s.cfg.workerList()
		if len(workers) == 0 {
			return nil, errors.New("fuseme: tcp runtime needs worker addresses (ClusterConfig.Workers or FUSEME_WORKERS)")
		}
		co, err := remote.NewCoordinator(s.cc, workers)
		if err != nil {
			return nil, err
		}
		co.SetObs(s.obs.Metrics)
		s.rtm = co
	default:
		return nil, fmt.Errorf("fuseme: unknown runtime %q (want \"sim\" or \"tcp\")", s.cfg.Runtime)
	}
	if st, ok := s.rtm.(seated); ok {
		if s.sched != nil {
			st.SetScheduler(s.sched.install(s.cc.TasksPerNode))
		}
		st.SetTenant(s.tenant, s.tenantWeight)
	}
	return s.rtm, nil
}

// Close releases the session's execution backend (worker connections under
// the TCP runtime) and stops the metrics endpoint, if any. It is idempotent
// and safe for concurrent callers; a second Close is a no-op. The session
// can be used again afterwards; the backend is reconstructed on demand (the
// metrics endpoint is not).
func (s *Session) Close() error {
	s.closeMu.Lock()
	srv := s.metricsSrv
	s.metricsSrv = nil
	journalFile := s.journalFile
	s.journalFile = nil
	s.closeMu.Unlock()
	var err error
	if srv != nil {
		err = srv.Close()
	}
	s.rtMu.Lock()
	rtm := s.rtm
	s.rtm = nil
	s.rtMu.Unlock()
	if rtm != nil {
		if cerr := rtm.Close(); err == nil {
			err = cerr
		}
	}
	// A sink handed in by the caller (WithJournal) is flushed, not closed;
	// the FUSEME_JOURNAL file is the session's own.
	if cerr := s.journal.Flush(); err == nil {
		err = cerr
	}
	if journalFile != nil {
		if cerr := journalFile.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// compiled is the result of compiling (or cache-fetching) a script: the
// physical plan, the runtime to execute it on, and — when the plan came
// from the cache — rename maps from the cached graph's variable names to
// this script's.
type compiled struct {
	pp       *core.PhysPlan
	rtm      rt.Runtime
	inNames  map[string]string // plan-graph input name -> this script's name
	outNames map[string]string // plan-graph output name -> this script's name
	parseS   float64           // lang.Parse
	compileS float64           // the engine's compile, or the plan-cache lookup
}

// bindingName maps a plan-graph input name to the caller's binding name.
func (c *compiled) bindingName(planName string) string {
	if c.inNames == nil {
		return planName
	}
	if n, ok := c.inNames[planName]; ok {
		return n
	}
	return planName
}

// outputName maps a plan-graph output name to the caller's output name.
func (c *compiled) outputName(planName string) string {
	if c.outNames == nil {
		return planName
	}
	if n, ok := c.outNames[planName]; ok {
		return n
	}
	return planName
}

// compile parses a script against the session's bound inputs and compiles
// it, consulting the plan cache when one is attached.
func (s *Session) compile(script string) (cq *compiled, err error) {
	decls := s.decls()
	from := time.Now()
	g, err := lang.Parse(script, decls)
	if err != nil {
		return nil, err
	}
	parseS := time.Since(from).Seconds()
	rtm, err := s.runtime()
	if err != nil {
		return nil, err
	}
	from = time.Now()
	defer func() {
		if cq != nil {
			cq.parseS, cq.compileS = parseS, time.Since(from).Seconds()
		}
	}()
	s.lastPlanHit = false
	cc := rtm.Config()
	if s.planCache == nil {
		pp, err := s.engine.Compile(g, cc)
		if err != nil {
			return nil, err
		}
		return &compiled{pp: pp, rtm: rtm}, nil
	}
	canon := plancache.Canonicalize(g)
	key := canon.Key + "|" + s.planFingerprint(rtm)
	// Sessions that meet one cold key together compile it once: the others
	// wait for that plan and count as hits.
	hit, ok, err := s.planCache.c.Get(key, canon, func() (*core.PhysPlan, error) { return s.engine.Compile(g, cc) })
	if err != nil {
		return nil, err
	}
	if ok {
		s.lastPlanHit = true
		s.obs.Metrics.Counter(obs.MPlanCacheHits).Inc()
		return &compiled{pp: hit.PP, rtm: rtm, inNames: hit.InputNames, outNames: hit.OutputNames}, nil
	}
	s.obs.Metrics.Counter(obs.MPlanCacheMisses).Inc()
	_, _, entries := s.planCache.c.Stats()
	s.obs.Metrics.Gauge(obs.MPlanCacheEntries).Set(float64(entries))
	return &compiled{pp: hit.PP, rtm: rtm}, nil
}

// Query parses and executes a script, returning its named outputs. The
// execution's metrics are available from LastStats afterwards. If another
// Query is already running on this session, it returns ErrSessionBusy.
func (s *Session) Query(script string) (map[string]*Matrix, error) {
	if !s.queryMu.TryLock() {
		return nil, ErrSessionBusy
	}
	defer s.queryMu.Unlock()
	// Event journal: the current query's log rides on s.obs for the duration
	// of the execution so executor stages emit into it; queryMu serialises
	// access. A failed query still reports its lifecycle.
	qlog := s.beginQueryLog()
	s.obs.QLog = qlog
	defer func() { s.obs.QLog = nil }()
	queryStart := time.Now()
	fail := func(err error) (map[string]*Matrix, error) {
		if qlog != nil {
			qlog.Emit(obs.Event{Type: obs.EvFailed,
				Seconds: time.Since(queryStart).Seconds(), Error: err.Error()})
		}
		return nil, err
	}
	cq, err := s.compile(script)
	if err != nil {
		return fail(err)
	}
	needed := map[string]*block.Matrix{}
	for _, in := range cq.pp.Graph.InputNodes() {
		bound := cq.bindingName(in.Name)
		b, ok := s.inputs[bound]
		if !ok {
			return fail(fmt.Errorf("fuseme: input %q is not bound", bound))
		}
		needed[in.Name] = b
	}
	if qlog != nil {
		planned := cq.pp.Planned(s.engine.Name(), cq.rtm.Config())
		planned.PlanCacheHit, planned.ParseSeconds, planned.CompileSeconds = s.lastPlanHit, cq.parseS, cq.compileS
		qlog.Emit(planned)
	}
	cq.rtm.ResetStats()
	out, err := core.ExecuteObs(cq.pp, cq.rtm, needed, s.obs)
	s.last = cq.rtm.Stats()
	if err != nil {
		return fail(err)
	}
	if qlog != nil {
		qlog.Emit(obs.Event{Type: obs.EvDone,
			Seconds: time.Since(queryStart).Seconds(), Tasks: s.last.Tasks})
	}
	res := make(map[string]*Matrix, len(out))
	for name, b := range out {
		res[cq.outputName(name)] = &Matrix{b: b}
	}
	return res, nil
}

// beginQueryLog resolves the event-journal log for one Query call: the
// pending SetQueryLog target when a front-end (the serve daemon) opened one,
// otherwise a fresh auto-numbered log on the session's journal. A traced
// session also records the log's events on its timeline. Nil when neither
// journaling nor tracing is on. Called under queryMu.
func (s *Session) beginQueryLog() *obs.QueryLog {
	q := s.pendingQLog
	s.pendingQLog = nil
	if q == nil && (s.journal != nil || s.timeline != nil) {
		s.queryCount++
		s.rtMu.Lock()
		tenant := s.tenant
		s.rtMu.Unlock()
		q = obs.NewQueryLog(s.journal, fmt.Sprintf("q%d", s.queryCount), tenant)
	}
	return q.Tee(s.timeline)
}

// Explain compiles a script and returns the physical plan description —
// which operators fuse, the strategy (CFO/BFO/RFO/...) and the chosen
// (P,Q,R) parameters.
func (s *Session) Explain(script string) (string, error) {
	cq, err := s.compile(script)
	if err != nil {
		return "", err
	}
	return cq.pp.Describe(), nil
}

// Simulate compiles a script and dry-runs it at full scale without
// computing any values: inputs need not be bound; their shapes are taken
// from shapes. Use this to explore cluster behaviour at dimensions that do
// not fit in local memory.
func (s *Session) Simulate(script string, shapes map[string]Shape) (Stats, error) {
	decls := make(map[string]lang.InputDecl, len(shapes))
	for name, sh := range shapes {
		sp := sh.Density
		if sp <= 0 {
			sp = 1
		}
		decls[name] = lang.InputDecl{Rows: sh.Rows, Cols: sh.Cols, Sparsity: sp}
	}
	g, err := lang.Parse(script, decls)
	if err != nil {
		return Stats{}, err
	}
	pp, err := s.engine.Compile(g, s.cc)
	if err != nil {
		return Stats{}, err
	}
	st, err := core.Simulate(pp, s.cc)
	return st, err
}

// Shape declares an input for Simulate.
type Shape struct {
	Rows, Cols int
	Density    float64 // estimated non-zero fraction; 0 or 1 for dense
}

// LastStats returns the metrics of the most recent Query execution.
func (s *Session) LastStats() Stats { return s.last }

// IsOutOfMemory reports whether err is a task-memory admission failure.
func IsOutOfMemory(err error) bool { return errors.Is(err, ErrOutOfMemory) }

// IsTimeout reports whether err is a simulated-time overrun.
func IsTimeout(err error) bool { return errors.Is(err, ErrTimeout) }
