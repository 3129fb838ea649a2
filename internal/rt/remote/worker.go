package remote

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fuseme/internal/blockcache"
	"fuseme/internal/cluster"
	"fuseme/internal/exec"
	"fuseme/internal/matrix"
	"fuseme/internal/obs"
	"fuseme/internal/parallel"
	"fuseme/internal/rt/spec"
)

// Worker serves task executions for one worker process. Each task stream a
// coordinator opens is served by one goroutine until the coordinator closes
// it: the stream's current stage (descriptor, rebuilt plan) is the only
// state kept between its tasks, and it is the stream's own — nothing about a
// stage is shared across connections or outlives one. Input blocks are
// pulled from the coordinator over the stream, and result blocks go back as
// they are produced, ahead of the task's completion report.
type Worker struct {
	ln    net.Listener
	wg    sync.WaitGroup
	conns sync.Map // net.Conn → struct{}, for forced shutdown

	closed atomic.Bool

	// Coordinator-departure tracking: ctrlActive counts open control
	// (heartbeat) connections; when the count returns to zero after at least
	// one coordinator connected, gone is closed exactly once and drop
	// receives a (non-blocking) signal every time it happens. Worker
	// processes started with -exit-on-disconnect use gone to terminate
	// cleanly when their coordinator shuts down; -join reconnect loops use
	// drop to re-register after every loss.
	ctrlMu     sync.Mutex
	ctrlActive int
	ctrlSeen   bool
	gone       chan struct{}
	goneOnce   sync.Once
	drop       chan struct{}

	// activeTasks counts in-flight task executions; Drain waits for it to
	// reach zero so a SIGTERM'd worker finishes its work before leaving.
	// taskWatch (same lock) is closed whenever a task finishes.
	taskMu      sync.Mutex
	activeTasks int
	taskWatch   chan struct{}

	// killAfter, when positive, makes the worker die (close its listener and
	// every connection) as the (killAfter+1)-th task arrives. Fault-injection
	// tests use this to exercise the coordinator's retry path.
	killAfter atomic.Int64
	started   atomic.Int64

	obs atomic.Pointer[obs.Obs] // process-local metrics; nil disables

	// cache is the worker-resident block cache for loop-invariant inputs;
	// nil (the default) disables caching. Set with SetCacheBytes before the
	// worker serves tasks.
	cache atomic.Pointer[blockcache.Cache]

	// taskDelay, when positive, stalls every task body by that duration at
	// the start of the timed task section, like a long kernel — a
	// fault-injection hook that turns this worker into a straggler (the
	// steal and skew-detection tests). Never used to measure anything.
	taskDelay atomic.Int64

	// Kernel-pool state. The pool is built lazily from the first stageAssign
	// (its KernelThreads/TaskSlots fields) and rebuilt only when those
	// settings change; kernelOverride, when >= 0, pins the thread count
	// locally (-kernel-threads / FUSEME_KERNEL_THREADS on the worker
	// process) regardless of what the coordinator ships. poolStats holds the
	// last snapshot reported to obs so per-task metric deltas stay exact
	// even with concurrent tasks sharing the pool.
	kernelOverride atomic.Int64
	poolMu         sync.Mutex
	pool           *parallel.Pool
	poolThreads    int
	poolSlots      int
	poolStats      parallel.Stats
}

// SetObs attaches an observability bundle: each executed task records its
// latency and wire-byte metrics in the worker's own registry (served by the
// worker process's -metrics-addr endpoint).
func (w *Worker) SetObs(o *obs.Obs) { w.obs.Store(o) }

// NewWorker starts a worker listening on addr (host:port; use port 0 for an
// ephemeral port) and begins accepting connections.
func NewWorker(addr string) (*Worker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	w := &Worker{
		ln:   ln,
		gone: make(chan struct{}),
		drop: make(chan struct{}, 1),
	}
	w.killAfter.Store(-1)
	w.kernelOverride.Store(-1)
	w.wg.Add(1)
	go w.acceptLoop()
	return w, nil
}

// Addr returns the address the worker listens on.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// KillAfterTasks arms the fault-injection hook: the worker dies when task
// number n (0-based) arrives. Negative disarms.
func (w *Worker) KillAfterTasks(n int) { w.killAfter.Store(int64(n)) }

// SetCacheBytes gives the worker a block cache with the given byte budget
// for loop-invariant inputs (n <= 0 disables caching). Replacing the budget
// drops all cached blocks.
func (w *Worker) SetCacheBytes(n int64) {
	if n <= 0 {
		w.cache.Store(nil)
		return
	}
	w.cache.Store(blockcache.New(n))
}

// CacheStats returns the worker cache's counters; zeroes with no cache.
func (w *Worker) CacheStats() blockcache.Stats { return w.cache.Load().Snapshot() }

// SetTaskDelay stalls every subsequent task body by d inside the timed task
// section, behaving like a long kernel — a fault-injection hook that makes
// this worker a straggler (forcing the coordinator's steal path
// deterministically). Zero disables.
func (w *Worker) SetTaskDelay(d time.Duration) { w.taskDelay.Store(int64(d)) }

// SetKernelThreads pins this worker's intra-task kernel thread count,
// overriding whatever each stageAssign ships: n > 0 is an explicit count,
// n == 0 restores auto-sizing against the worker's own cores, and a negative
// n removes the override (coordinator settings apply again). Keep explicit
// counts x the coordinator's TasksPerNode at or below this machine's cores —
// see internal/parallel for the oversubscription contract.
func (w *Worker) SetKernelThreads(n int) {
	if n < 0 {
		n = -1
	}
	w.kernelOverride.Store(int64(n))
}

// KernelPool returns the worker's current kernel pool (nil before the first
// task, or when the resolved thread count is 1).
func (w *Worker) KernelPool() *parallel.Pool {
	w.poolMu.Lock()
	defer w.poolMu.Unlock()
	return w.pool
}

// kernelPool returns the pool matching the assignment's parallelism
// settings, rebuilding the cached one only when they change. The slot count
// is clamped to this machine's GOMAXPROCS so the helper budget never assumes
// more cores than exist, whatever the coordinator's TasksPerNode says.
func (w *Worker) kernelPool(assign *stageAssign) *parallel.Pool {
	threads := assign.KernelThreads
	if ov := w.kernelOverride.Load(); ov >= 0 {
		threads = int(ov)
	}
	slots := assign.TaskSlots
	if slots <= 0 {
		slots = 1
	}
	if n := runtime.GOMAXPROCS(0); slots > n {
		slots = n
	}
	resolved := parallel.Resolve(threads, slots)
	w.poolMu.Lock()
	defer w.poolMu.Unlock()
	if w.poolThreads != resolved || w.poolSlots != slots {
		w.pool = parallel.New(resolved, slots)
		w.poolThreads, w.poolSlots = resolved, slots
		w.poolStats = parallel.Stats{}
	}
	return w.pool
}

// kernelStatsDelta returns the pool counters accumulated since the previous
// call. Serialized under poolMu so concurrent finishing tasks never report
// overlapping windows.
func (w *Worker) kernelStatsDelta() (delta parallel.Stats, threads int) {
	w.poolMu.Lock()
	defer w.poolMu.Unlock()
	cur := w.pool.Stats()
	delta = parallel.Stats{
		ParallelCalls: cur.ParallelCalls - w.poolStats.ParallelCalls,
		SerialCalls:   cur.SerialCalls - w.poolStats.SerialCalls,
		HelperRuns:    cur.HelperRuns - w.poolStats.HelperRuns,
	}
	w.poolStats = cur
	return delta, w.pool.Threads()
}

// Close shuts the worker down: the listener and every open connection are
// closed, and in-flight task handlers are abandoned.
func (w *Worker) Close() error {
	if w.closed.Swap(true) {
		return nil
	}
	err := w.ln.Close()
	w.conns.Range(func(k, _ any) bool {
		k.(net.Conn).Close()
		return true
	})
	return err
}

// Wait blocks until the accept loop and all connection handlers return.
func (w *Worker) Wait() { w.wg.Wait() }

// CoordinatorGone returns a channel that is closed when the worker's last
// coordinator control connection has closed (after at least one coordinator
// connected). fuseme-worker's -exit-on-disconnect flag selects on it to exit
// cleanly — no retry loops, no error spam — when the coordinator shuts down.
func (w *Worker) CoordinatorGone() <-chan struct{} { return w.gone }

// ControlDrop returns a channel that receives one signal each time the
// worker's control-connection count returns to zero — unlike
// CoordinatorGone it keeps firing across reconnects, which is what
// fuseme-worker's -join backoff loop waits on to re-register.
func (w *Worker) ControlDrop() <-chan struct{} { return w.drop }

// ActiveTasks returns the number of task executions currently in flight.
func (w *Worker) ActiveTasks() int {
	w.taskMu.Lock()
	defer w.taskMu.Unlock()
	return w.activeTasks
}

// taskFinished retires one in-flight task and wakes Drain.
func (w *Worker) taskFinished() {
	w.taskMu.Lock()
	w.activeTasks--
	if w.taskWatch != nil {
		close(w.taskWatch)
		w.taskWatch = nil
	}
	w.taskMu.Unlock()
}

// Drain waits until the worker has no in-flight tasks, woken by each task's
// completion, up to timeout. It does not refuse new tasks by itself — the
// departing worker is expected to have sent msgLeave first, which stops the
// coordinator's dispatch. Returns true when the worker drained within the
// deadline.
func (w *Worker) Drain(timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		w.taskMu.Lock()
		if w.activeTasks == 0 {
			w.taskMu.Unlock()
			return true
		}
		if w.taskWatch == nil {
			w.taskWatch = make(chan struct{})
		}
		finished := w.taskWatch
		w.taskMu.Unlock()
		select {
		case <-finished:
		case <-deadline.C:
			return false
		}
	}
}

func (w *Worker) acceptLoop() {
	defer w.wg.Done()
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			return // listener closed
		}
		w.conns.Store(conn, struct{}{})
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			defer w.conns.Delete(conn)
			defer conn.Close()
			w.handleConn(conn)
		}()
	}
}

// handleConn dispatches on the connection's first frame: a control
// connection (hello + heartbeats) or a task stream (its first stage).
func (w *Worker) handleConn(conn net.Conn) {
	typ, payload, err := readFrame(conn, maxControlFrame)
	if err != nil {
		return
	}
	switch typ {
	case msgHello:
		// The ack names this worker's version either way, so a coordinator
		// of another version reports "protocol mismatch", not a bare EOF.
		var h hello
		if decodeGob(payload, &h) != nil ||
			writeGob(conn, msgHelloAck, helloAck{Proto: protoVersion}) != nil ||
			h.Proto != protoVersion {
			return
		}
		w.ctrlMu.Lock()
		w.ctrlActive++
		w.ctrlSeen = true
		w.ctrlMu.Unlock()
		w.controlLoop(conn)
		w.ctrlMu.Lock()
		w.ctrlActive--
		lastGone := w.ctrlActive == 0
		w.ctrlMu.Unlock()
		if lastGone {
			w.goneOnce.Do(func() { close(w.gone) })
			select {
			case w.drop <- struct{}{}:
			default:
			}
		}
	case msgStage:
		s := newStream(conn)
		defer s.close()
		w.serveStream(s, payload)
	}
}

// workerStage is a task stream's current stage: what msgStage shipped and
// the plan rebuilt from it, once, for every task of the stage this stream is
// assigned. A descriptor that does not build fails each of those tasks with
// buildErr, as it would have failed them one by one.
type workerStage struct {
	stageAssign
	exec     *exec.Stage
	buildErr error
}

// serveStream runs a task stream until the coordinator closes it (or a
// transport or protocol error ends it): msgStage replaces the current stage,
// msgTask runs one task of it to its msgDone or msgFail.
func (w *Worker) serveStream(s *stream, firstStage []byte) {
	typ, payload := msgStage, firstStage
	var st *workerStage
	q := &fetchQueue{s: s}
	for {
		switch typ {
		case msgStage:
			st = &workerStage{}
			if err := s.decodeGob(payload, &st.stageAssign); err != nil {
				s.writeGob(msgFail, taskFail{Err: fmt.Sprintf("decoding stage: %v", err)})
				return
			}
			st.exec, st.buildErr = exec.NewSpecStage(&st.Stage)
			s.blockSize, s.gen = st.Stage.BlockSize, st.Gen
		case msgTask:
			var assign taskAssign
			if err := s.decodeGob(payload, &assign); err != nil {
				s.writeGob(msgFail, taskFail{Err: fmt.Sprintf("decoding task: %v", err)})
				return
			}
			if assign.Gen != st.Gen {
				s.writeGob(msgFail, taskFail{Err: fmt.Sprintf(
					"remote: task of stage generation %d on a stream holding generation %d", assign.Gen, st.Gen)})
				return
			}
			if !w.runTask(s, q, st, &assign) {
				return
			}
		default:
			return
		}
		var err error
		if typ, payload, err = s.readFrame(); err != nil {
			return
		}
	}
}

// controlLoop answers heartbeats until the connection drops or a frame other
// than msgPing arrives — a frame above maxControlFrame is refused before its
// payload is read — and returns what ended it. After the handshake the
// coordinator sends nothing else on a control connection, so any other frame
// means the two ends no longer agree on the protocol.
func (w *Worker) controlLoop(conn net.Conn) error {
	for {
		typ, _, err := readFrame(conn, maxControlFrame)
		if err != nil {
			return err
		}
		if typ != msgPing {
			return fmt.Errorf("remote: unexpected frame type %d on the control connection", typ)
		}
		if err := writeGob(conn, msgPong, pong{UnixNano: time.Now().UnixNano()}); err != nil {
			return err
		}
	}
}

// runTask executes one assigned task of the stream's stage, pulling blocks
// through the stream's fetch queue q and sending result blocks over s, and
// reports the outcome. It returns false when the stream is no longer usable.
func (w *Worker) runTask(s *stream, q *fetchQueue, st *workerStage, assign *taskAssign) bool {
	if kill := w.killAfter.Load(); kill >= 0 && w.started.Add(1) > kill {
		// Fault injection: die abruptly, mid-stage, without a reply.
		w.Close()
		return false
	}
	w.taskMu.Lock()
	w.activeTasks++
	w.taskMu.Unlock()
	defer w.taskFinished()
	// Deferred, so it runs after the msgDone or msgFail that returns.
	defer s.arena.Reset()
	if st.buildErr != nil {
		return s.writeGob(msgFail, taskFail{Err: st.buildErr.Error()}) == nil
	}
	task := &cluster.Task{ID: assign.TaskID}
	task.SetPool(w.kernelPool(&st.stageAssign))
	var tt *cluster.TaskTrace
	if assign.Trace {
		tt = &cluster.TaskTrace{}
		task.SetTrace(tt)
	}
	cache := w.cache.Load()
	task.SetCache(cache, assign.Gen)
	// Fetched blocks live in the stream's arena until the task ends, unless
	// the task may cache them: a cached block outlives its task.
	arena := &s.arena
	if cache != nil {
		arena = nil
	}

	// The task body fetches and emits from this goroutine alone. Its
	// requests run ahead of its fetches (fetchQueue); a result goes out only
	// once every reply it asked for is read, and so do msgDone and msgFail.
	q.arena = arena
	var fetchSecs float64 // wire wait inside the task body
	fetch := func(ref spec.BlockRef) (matrix.Mat, error) {
		fetchStart := time.Now()
		blk, err := q.fetch(ref)
		fetchSecs += time.Since(fetchStart).Seconds()
		return blk, err
	}
	ahead := func(refs []spec.BlockRef) {
		aheadStart := time.Now()
		q.ahead(refs)
		fetchSecs += time.Since(aheadStart).Seconds()
	}
	emit := func(kind uint8, bi, bj int, m matrix.Mat) error {
		if err := q.drain(); err != nil {
			return err
		}
		return s.writeResult(kind, bi, bj, m)
	}

	start := time.Now()
	if d := w.taskDelay.Load(); d > 0 {
		// The injected stall behaves like a long kernel: it counts as task
		// time, exactly as a real computation would.
		time.Sleep(time.Duration(d))
	}
	err := st.exec.RunTask(task, fetch, ahead, emit)
	taskDur := time.Since(start)
	m := task.Metrics()
	m.FetchSeconds, m.TaskSeconds = fetchSecs, taskDur.Seconds()
	if o := w.obs.Load(); o.Enabled() {
		o.Counter(obs.MWorkerTasksTotal).Inc()
		o.Histogram(obs.MWorkerTaskSeconds).Observe(taskDur.Seconds())
		o.Counter(obs.MWorkerFetchBytes).Add(m.ConsolidationBytes)
		o.Counter(obs.MWorkerResultBytes).Add(m.AggregationBytes)
		if m.CacheHits+m.CacheMisses > 0 {
			o.Counter(obs.MCacheHits).Add(m.CacheHits)
			o.Counter(obs.MCacheMisses).Add(m.CacheMisses)
			o.Counter(obs.MCacheEvictions).Add(m.CacheEvictions)
			o.Gauge(obs.MCacheResidentBytes).Set(float64(cache.ResidentBytes()))
		}
		delta, threads := w.kernelStatsDelta()
		o.Gauge(obs.MKernelThreads).Set(float64(threads))
		o.Counter(obs.MKernelParallelCalls).Add(delta.ParallelCalls)
		o.Counter(obs.MKernelSerialCalls).Add(delta.SerialCalls)
		o.Counter(obs.MKernelHelperRuns).Add(delta.HelperRuns)
	}
	if q.finish() != nil {
		return false // the stream is dead: no msgDone or msgFail can follow
	}
	if err != nil {
		return s.writeGob(msgFail, taskFail{Err: err.Error()}) == nil
	}
	var spans []spec.SpanRec
	if tt != nil {
		// Whole-task span first, then the body's sub-spans, all on the
		// worker's clock; the coordinator aligns them to its own.
		sub := tt.Spans()
		spans = make([]spec.SpanRec, 0, 1+len(sub))
		spans = append(spans, spec.SpanRec{
			Name:          fmt.Sprintf("task %d", assign.TaskID),
			Cat:           "task",
			StartUnixNano: start.UnixNano(),
			DurNanos:      taskDur.Nanoseconds(),
		})
		for _, sp := range sub {
			spans = append(spans, spec.SpanRec{
				Name:          sp.Name,
				Cat:           sp.Cat,
				StartUnixNano: sp.Start.UnixNano(),
				DurNanos:      sp.End.Sub(sp.Start).Nanoseconds(),
			})
		}
	}
	return s.writeGob(msgDone, taskDone{Metrics: m, Spans: spans}) == nil
}
