// Package cluster implements the simulated distributed runtime the engines
// execute on. It stands in for the paper's Spark cluster (one coordinator +
// eight workers, 12 tasks per node, 1 Gbps Ethernet): tasks run on the stage
// driver both runtimes share (sched.Run: TasksPerNode lanes per node, and at
// most GOMAXPROCS tasks at once in-process), every block that moves between
// storage, the driver and a task is metered in bytes, and per-task memory is
// tracked. A stage's Stats hold only measurements — bytes, flops, tasks and
// wall time — as the TCP runtime's do. The paper's Eq. 2 (Config.Eq2) plus
// the scheduling overhead of a stage's task waves (Config.WaveOverhead)
// price a plan, not an executed stage:
//
//	stageTime = max(stageBytes / (N * B̂n), stageFlops / (N * B̂c)) + overhead
//
// because computation and communication overlap within a stage. core.Simulate
// is the one clock: it prices a compiled plan from its estimates and refuses
// it (ErrOutOfMemory, ErrTimeout) before execution starts. Real local
// arithmetic still runs (and is verified against references in tests); only
// placement is simulated.
package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"fuseme/internal/matrix"
	"fuseme/internal/parallel"
	"fuseme/internal/sched"
)

// ErrOutOfMemory is returned (wrapped) when an operator's estimated per-task
// memory exceeds the task budget. This is the O.O.M. of the paper's figures.
var ErrOutOfMemory = errors.New("task memory budget exceeded (O.O.M.)")

// ErrTimeout is returned (wrapped) when a plan's simulated clock
// (core.Simulate) passes the configured limit. This is the T.O. (12 h in the
// paper) of the figures.
var ErrTimeout = errors.New("simulated time limit exceeded (T.O.)")

// Config describes the simulated cluster.
type Config struct {
	Nodes         int     // N: number of worker nodes
	TasksPerNode  int     // Tc: concurrent tasks per node
	TaskMemBytes  int64   // θt: memory budget per task
	NetBandwidth  float64 // B̂n: peak network bandwidth per node, bytes/s
	CompBandwidth float64 // B̂c: peak computation bandwidth per node, flop/s
	BlockSize     int     // block width/height in elements
	SimTimeLimit  float64 // a plan's simulated seconds (core.Simulate) before ErrTimeout; 0 disables
	TaskOverhead  float64 // simulated seconds of scheduling overhead per task wave

	// MaxTaskRetries is how many times a failed task is re-attempted before
	// the stage fails (Spark's task retry). Zero means no retries.
	MaxTaskRetries int
	// InjectTaskFailure, when non-nil, is consulted before each task
	// attempt, on either runtime; returning true fails the attempt with
	// sched.ErrInjected without running it. Used by failure-injection tests
	// to exercise retry paths.
	InjectTaskFailure func(taskID, attempt int) bool
}

// Default returns the paper's cluster shape (Section 6.1): 8 worker nodes,
// 12 tasks per node, 10 GB per task, 1 Gbps Ethernet (125 MB/s) and
// 546 GFLOPS per node, 1000x1000 blocks.
func Default() Config {
	return Config{
		Nodes:         8,
		TasksPerNode:  12,
		TaskMemBytes:  10 << 30,
		NetBandwidth:  125e6,
		CompBandwidth: 546e9,
		BlockSize:     1000,
		SimTimeLimit:  12 * 3600,
		// Spark launches one job per distributed operator; scheduling,
		// serialisation and shuffle setup cost on the order of a second per
		// task wave. Fusion's stage-count reduction is visible through this
		// constant (most prominently in the AutoEncoder comparison).
		TaskOverhead: 1.0,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("cluster: Nodes = %d, must be positive", c.Nodes)
	case c.TasksPerNode <= 0:
		return fmt.Errorf("cluster: TasksPerNode = %d, must be positive", c.TasksPerNode)
	case c.TaskMemBytes <= 0:
		return fmt.Errorf("cluster: TaskMemBytes = %d, must be positive", c.TaskMemBytes)
	case c.NetBandwidth <= 0 || c.CompBandwidth <= 0:
		return fmt.Errorf("cluster: bandwidths must be positive")
	case c.BlockSize <= 0:
		return fmt.Errorf("cluster: BlockSize = %d, must be positive", c.BlockSize)
	}
	return nil
}

// CheckAdmission rejects an operator, named by what, whose estimated
// per-task memory exceeds the budget θt, wrapping ErrOutOfMemory. Engines with
// no partitioning knob (BFO, MatFast's folded operators) fail here, as in the
// paper. It is the one admission check: core.Simulate, which the executor
// runs before any operator starts, calls it only once an operator's estimate
// is over θt, so what is built only for a rejection.
func (c Config) CheckAdmission(estTaskMemBytes int64, what string) error {
	if estTaskMemBytes > c.TaskMemBytes {
		return fmt.Errorf("%s needs %s per task, budget %s: %w",
			what, FormatBytes(estTaskMemBytes), FormatBytes(c.TaskMemBytes), ErrOutOfMemory)
	}
	return nil
}

// TotalSlots returns N * Tc, the maximum parallelism of the cluster.
func (c Config) TotalSlots() int { return c.Nodes * c.TasksPerNode }

// Seat returns a runtime's seat at gate, under the stage policy of this
// shape: a failed task is retried MaxTaskRetries times, and
// InjectTaskFailure is consulted before each attempt.
func (c Config) Seat(gate *sched.Scheduler) *sched.Seat {
	return sched.NewSeat(gate, sched.Stage{Retries: c.MaxTaskRetries, Inject: c.InjectTaskFailure})
}

// Eq2 prices the two terms of the paper's Eq. 2 on this cluster: netBytes of
// cluster-wide traffic over N × B̂n and flops over N × B̂c, both per-node
// constants as configured (kernel threads are part of what a node achieves,
// not a factor on B̂c). Computation and communication overlap, so a stage
// takes the larger of the two. This is the one place the model prices a
// term: the optimizer's objective, the plan's clock (core.Simulate),
// -explain and the calibration report all call it. A non-positive bandwidth
// prices its term at zero.
func (c Config) Eq2(netBytes, flops float64) (netSec, compSec float64) {
	n := float64(c.Nodes)
	if c.NetBandwidth > 0 {
		netSec = netBytes / (n * c.NetBandwidth)
	}
	if c.CompBandwidth > 0 {
		compSec = flops / (n * c.CompBandwidth)
	}
	return netSec, compSec
}

// WaveOverhead is the scheduling overhead of a stage of the given number of
// tasks: TaskOverhead per wave of TotalSlots tasks.
func (c Config) WaveOverhead(tasks int) float64 {
	if tasks <= 0 || c.TaskOverhead <= 0 {
		return 0
	}
	slots := max(c.TotalSlots(), 1)
	return float64((tasks+slots-1)/slots) * c.TaskOverhead
}

// Stats accumulates execution metrics across stages. All byte counts are the
// "amount of transferred data" the paper reports as communication cost. It is
// also the one record of a single task's metering (Task.Metrics), which a
// remote worker ships back in its done frame and both runtimes fold into
// their stage with Add; a stage's measurement (a flight record's Meas) and the
// runtime totals /debug/stats serves are Stats too. Its JSON form is one in all
// three places: a journal task event's metrics, a stage_end flight's meas and
// /debug/stats' stats.
type Stats struct {
	ConsolidationBytes int64   `json:"consolidation_bytes,omitempty"` // matrix consolidation step: inputs to tasks
	AggregationBytes   int64   `json:"aggregation_bytes,omitempty"`   // matrix aggregation step: shuffled partials
	Flops              int64   `json:"flops,omitempty"`               // floating-point operations executed
	Stages             int     `json:"stages,omitempty"`              // distributed stages launched
	Tasks              int     `json:"tasks,omitempty"`               // tasks launched across all stages
	SimSeconds         float64 `json:"sim_seconds,omitempty"`         // the plan's Eq. 2 clock (core.Simulate); no runtime writes it
	WallSeconds        float64 `json:"wall_seconds,omitempty"`        // real wall-clock time of execution
	PeakTaskMemBytes   int64   `json:"peak_task_mem_bytes,omitempty"` // max per-task memory high-water mark
	MaxTaskFlops       int64   `json:"max_task_flops,omitempty"`      // heaviest single task (load-balance metric)

	// ExtraWireBytes is traffic measured by a real (remote) backend that has
	// no counterpart in the simulated communication model: co-partitioned
	// input blocks shipped to workers (local reads in a real deployment),
	// aggregated partials re-delivered through the coordinator, and final
	// result blocks returned to the driver. Always zero under simulation.
	ExtraWireBytes int64 `json:"extra_wire_bytes,omitempty"`

	// CacheHits and CacheSavedBytes are always zero: there is no block
	// cache. The fields stay only because the benchmark (bench/) reads
	// them; the benchmark's re-pin deletes them.
	CacheHits       int64 `json:"cache_hits,omitempty"`
	CacheSavedBytes int64 `json:"cache_saved_bytes,omitempty"`

	// Dispatch counters. A steal is a queued task executed by a node other
	// than its home (sched.Run counts them on both runtimes). The seconds
	// counters, measured by the TCP runtime and zero under simulation,
	// decompose task time: FetchSeconds is wire-wait inside task bodies,
	// TaskSeconds total task wall time.
	StealTasks   int64   `json:"steal_tasks,omitempty"`
	FetchSeconds float64 `json:"fetch_seconds,omitempty"`
	// PrefetchSeconds is always zero: nothing prefetches across tasks. The
	// field stays only because the benchmark (bench/) reads it; the
	// benchmark's re-pin deletes both.
	PrefetchSeconds float64 `json:"prefetch_seconds,omitempty"`
	TaskSeconds     float64 `json:"task_seconds,omitempty"`

	// The TCP coordinator's side of the wire, zero under simulation:
	// FetchCalls block requests served to workers, FetchServeSeconds spent
	// resolving them (rt.Stage.Fetch), CollectSeconds spent taking task
	// results in (rt.Stage.Collect).
	FetchCalls        int64   `json:"fetch_calls,omitempty"`
	FetchServeSeconds float64 `json:"fetch_serve_seconds,omitempty"`
	CollectSeconds    float64 `json:"collect_seconds,omitempty"`
}

// TotalCommBytes is consolidation plus aggregation traffic — the
// "communication cost" of the paper's figures.
func (s Stats) TotalCommBytes() int64 { return s.ConsolidationBytes + s.AggregationBytes }

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("comm=%s flops=%d stages=%d tasks=%d simTime=%.3fs wall=%.3fs peakTaskMem=%s",
		FormatBytes(s.TotalCommBytes()), s.Flops, s.Stages, s.Tasks,
		s.SimSeconds, s.WallSeconds, FormatBytes(s.PeakTaskMemBytes))
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.ConsolidationBytes += other.ConsolidationBytes
	s.AggregationBytes += other.AggregationBytes
	s.Flops += other.Flops
	s.Stages += other.Stages
	s.Tasks += other.Tasks
	s.SimSeconds += other.SimSeconds
	s.WallSeconds += other.WallSeconds
	s.ExtraWireBytes += other.ExtraWireBytes
	s.StealTasks += other.StealTasks
	s.FetchSeconds += other.FetchSeconds
	s.TaskSeconds += other.TaskSeconds
	s.FetchCalls += other.FetchCalls
	s.FetchServeSeconds += other.FetchServeSeconds
	s.CollectSeconds += other.CollectSeconds
	if other.PeakTaskMemBytes > s.PeakTaskMemBytes {
		s.PeakTaskMemBytes = other.PeakTaskMemBytes
	}
	if other.MaxTaskFlops > s.MaxTaskFlops {
		s.MaxTaskFlops = other.MaxTaskFlops
	}
}

// Sub returns what accumulated between the snapshot prev and s: every counter
// subtracts; the two maxima (PeakTaskMemBytes, MaxTaskFlops) have no
// difference and keep s's value.
func (s Stats) Sub(prev Stats) Stats {
	s.ConsolidationBytes -= prev.ConsolidationBytes
	s.AggregationBytes -= prev.AggregationBytes
	s.Flops -= prev.Flops
	s.Stages -= prev.Stages
	s.Tasks -= prev.Tasks
	s.SimSeconds -= prev.SimSeconds
	s.WallSeconds -= prev.WallSeconds
	s.ExtraWireBytes -= prev.ExtraWireBytes
	s.StealTasks -= prev.StealTasks
	s.FetchSeconds -= prev.FetchSeconds
	s.TaskSeconds -= prev.TaskSeconds
	s.FetchCalls -= prev.FetchCalls
	s.FetchServeSeconds -= prev.FetchServeSeconds
	s.CollectSeconds -= prev.CollectSeconds
	return s
}

// Cluster is a simulated cluster instance. Stages may run concurrently —
// the operators of one plan that do not depend on each other do — and share
// its nodes' lanes; stats reads are safe concurrently with stages.
type Cluster struct {
	// Seat is the cluster's place at its dispatch gate: TasksPerNode lanes
	// per node across every stage in flight, taken on the tenant's turn. The
	// cluster's own gate runs at most min(TotalSlots, GOMAXPROCS) tasks at
	// once; the serve daemon installs one gate across its sessions
	// (SetScheduler), so their tasks share the nodes' lanes and interleave
	// fairly.
	*sched.Seat

	cfg Config

	// pool is the shared intra-task kernel pool handed to every task this
	// cluster runs. Sized against the process's real local concurrency
	// (min(TotalSlots, GOMAXPROCS)), not the simulated slot count, so
	// kernel threads x local slots never oversubscribes the machine.
	pool *parallel.Pool

	mu    sync.Mutex
	stats Stats

	alive []bool // every simulated node, live
}

// New creates a cluster from cfg.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, alive: make([]bool, cfg.Nodes)}
	for i := range c.alive {
		c.alive[i] = true
	}
	localSlots := min(cfg.TotalSlots(), runtime.GOMAXPROCS(0))
	c.pool = parallel.New(parallel.Resolve(localSlots), localSlots)
	c.Seat = cfg.Seat(sched.New(cfg.TasksPerNode, localSlots))
	return c, nil
}

// MustNew is New for known-good configs (tests, examples).
func MustNew(cfg Config) *Cluster {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// KernelPool returns the shared intra-task kernel pool (nil when kernels run
// serially). Observability layers read its Stats; tasks receive it via
// Task.Pool.
func (c *Cluster) KernelPool() *parallel.Pool { return c.pool }

// Stats returns a snapshot of accumulated metrics.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ResetStats clears accumulated metrics (between experiments).
func (c *Cluster) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = Stats{}
}

// Close releases runtime resources. The simulated cluster holds none; the
// method exists so *Cluster satisfies the rt.Runtime interface.
func (c *Cluster) Close() error { return nil }

// Task is the handle a stage function uses to meter its data movement,
// computation and memory. Not safe for concurrent use (each task owns one).
type Task struct {
	ID int

	node int // the node whose lane runs the attempt (Node)

	// pool is the kernel pool the task's local linear algebra may fan out
	// on; nil means serial kernels. Set by the backend that runs the task.
	pool *parallel.Pool

	// trace collects the task body's sub-spans (fetch/kernel/send);
	// nil means tracing is off. Set by the backend that runs the task.
	trace *TaskTrace

	// stage is the stats of the stage the task belongs to, filled in by the
	// simulated cluster once the stage folded its tasks (StageStats).
	stage *Stats

	// stats is the task's metering: the byte and flop counters, and
	// in PeakTaskMemBytes the high-water mark of memBytes, its live memory.
	stats    Stats
	memBytes int64
}

// SetPool hands the task a kernel pool for intra-task parallelism. Backends
// call it before running the task body.
func (t *Task) SetPool(p *parallel.Pool) { t.pool = p }

// Pool returns the task's kernel pool; nil means serial kernels.
func (t *Task) Pool() *parallel.Pool { return t.pool }

// Node returns the node whose lane runs the task under Cluster.RunStage:
// its home, or the thief of a stolen task.
func (t *Task) Node() int { return t.node }

// StageStats returns the stats of the stage a task of Cluster.RunStage
// belongs to — that stage's own, whatever other stages run beside it. They
// are complete once RunStage has returned, and zero (Stages 0) when the
// stage failed before its tasks were folded; a task run by any other
// backend has none (nil).
func (t *Task) StageStats() *Stats { return t.stage }

// FetchBlock meters a block moved to this task during matrix consolidation
// and counts it against the task's live memory.
func (t *Task) FetchBlock(m matrix.Mat) {
	if m == nil {
		return
	}
	n := m.SizeBytes()
	t.stats.ConsolidationBytes += n
	t.GrowMem(n)
}

// SendBlock meters a partial-result block shuffled out of this task during
// matrix aggregation.
func (t *Task) SendBlock(m matrix.Mat) {
	if m == nil {
		return
	}
	t.stats.AggregationBytes += m.SizeBytes()
}

// AddFlops meters floating-point work executed by this task.
func (t *Task) AddFlops(n int64) { t.stats.Flops += n }

// GrowMem increases the task's live-memory estimate and updates its peak.
func (t *Task) GrowMem(n int64) {
	t.memBytes += n
	t.stats.PeakTaskMemBytes = max(t.stats.PeakTaskMemBytes, t.memBytes)
}

// Metrics returns the task's accumulated metering as the Stats of one task:
// its counters, its memory high-water mark as PeakTaskMemBytes and its flops
// as MaxTaskFlops, so Stats.Add folds tasks into a stage. The seconds fields
// are the caller's to fill: only a remote worker times its tasks.
func (t *Task) Metrics() Stats {
	m := t.stats
	m.MaxTaskFlops = m.Flops
	return m
}

// RunStage executes numTasks tasks as one distributed stage over the
// simulated nodes, through the cluster's Seat: at most TasksPerNode at once
// on a node and, on the cluster's own gate, min(TotalSlots, GOMAXPROCS) in
// all. fn runs once per task attempt, on a Task carrying the node whose lane
// runs it (Task.Node), the kernel pool and the stage's own stats
// (Task.StageStats). Task metrics are folded into those and into the cluster
// stats, with the stage's wall time. The first error aborts the stage once
// in-flight tasks finish.
func (c *Cluster) RunStage(name string, numTasks int, fn func(t *Task) error) error {
	if numTasks < 0 {
		return fmt.Errorf("cluster: stage %q: negative task count", name)
	}
	start := time.Now()
	stage := &Stats{}
	tasks := make([]Task, numTasks)
	steals, err := c.Seat.Run(name, numTasks, c.alive, func(node, id, _ int) error {
		// A retried task restarts with clean metering: the failed attempt's
		// partial work is discarded, exactly as a re-executed Spark task
		// recomputes its partition.
		tasks[id] = Task{ID: id, node: node, pool: c.pool, stage: stage}
		return fn(&tasks[id])
	})
	if err != nil {
		return err
	}

	for i := range tasks {
		stage.Add(tasks[i].Metrics())
	}
	stage.Stages, stage.Tasks, stage.StealTasks = 1, numTasks, steals
	stage.WallSeconds = time.Since(start).Seconds()

	c.mu.Lock()
	c.stats.Add(*stage)
	c.mu.Unlock()
	return nil
}

// FormatBytes renders a byte count with a binary-prefix unit.
func FormatBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for v := n / unit; v >= unit; v /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(n)/float64(div), "KMGTPE"[exp])
}
