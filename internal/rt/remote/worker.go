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

	reg atomic.Pointer[obs.Registry] // process-local metrics; nil disables

	// cache is the worker-resident block cache for loop-invariant inputs,
	// built with the budget cacheBytes a stage shipped (see blockCache); nil
	// until a stage ships one.
	cacheMu    sync.Mutex
	cache      *blockcache.Cache
	cacheBytes int64

	// taskDelay, when positive, stalls every task body by that duration at
	// the start of the timed task section, like a long kernel — a
	// fault-injection hook that turns this worker into a straggler (the
	// steal and skew-detection tests). Never used to measure anything.
	taskDelay atomic.Int64

	// Kernel-pool state. The pool is built lazily from the first stageAssign
	// (its TaskSlots field) and this process's GOMAXPROCS, and rebuilt only
	// when those change.
	poolMu      sync.Mutex
	pool        *parallel.Pool
	poolThreads int
	poolSlots   int
}

// SetObs attaches the worker's own metrics registry (served by the worker
// process's -metrics-addr endpoint): each executed task records its latency,
// wire-byte, cache and kernel-pool metrics there. Nil publishes none.
func (w *Worker) SetObs(reg *obs.Registry) { w.reg.Store(reg) }

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
	w.wg.Add(1)
	go w.acceptLoop()
	return w, nil
}

// Addr returns the address the worker listens on.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// KillAfterTasks arms the fault-injection hook: the worker dies when task
// number n (0-based) arrives. Negative disarms.
func (w *Worker) KillAfterTasks(n int) { w.killAfter.Store(int64(n)) }

// blockCache returns the cache a task of a stage with the given budget runs
// with: none when the stage ships no budget, else the worker's one cache,
// which is built from the first budget a stage ships and rebuilt — dropping
// every cached block — when a stage ships a different one.
func (w *Worker) blockCache(budget int64) *blockcache.Cache {
	if budget <= 0 {
		return nil
	}
	w.cacheMu.Lock()
	defer w.cacheMu.Unlock()
	if w.cacheBytes != budget {
		w.cache, w.cacheBytes = blockcache.New(budget), budget
	}
	return w.cache
}

// CacheStats returns the worker cache's counters; zeroes with no cache.
func (w *Worker) CacheStats() blockcache.Stats {
	w.cacheMu.Lock()
	defer w.cacheMu.Unlock()
	return w.cache.Snapshot()
}

// SetTaskDelay stalls every subsequent task body by d inside the timed task
// section, behaving like a long kernel — a fault-injection hook that makes
// this worker a straggler (forcing the coordinator's steal path
// deterministically). Zero disables.
func (w *Worker) SetTaskDelay(d time.Duration) { w.taskDelay.Store(int64(d)) }

// KernelPool returns the worker's current kernel pool (nil before the first
// task, or when the resolved thread count is 1).
func (w *Worker) KernelPool() *parallel.Pool {
	w.poolMu.Lock()
	defer w.poolMu.Unlock()
	return w.pool
}

// kernelPool returns the pool for a stage that runs slots tasks at once on
// this worker, rebuilding the current one only when its shape changes. The
// slot count is clamped to this machine's GOMAXPROCS so the helper budget
// never assumes more cores than exist, whatever the coordinator's
// TasksPerNode says, and the thread count follows the same GOMAXPROCS
// (parallel.Resolve).
func (w *Worker) kernelPool(slots int) *parallel.Pool {
	slots = min(max(slots, 1), runtime.GOMAXPROCS(0))
	resolved := parallel.Resolve(slots)
	w.poolMu.Lock()
	defer w.poolMu.Unlock()
	if w.poolThreads != resolved || w.poolSlots != slots {
		w.pool = parallel.New(resolved, slots)
		w.poolThreads, w.poolSlots = resolved, slots
	}
	return w.pool
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
		if err := writeFrame(conn, msgPong, nil); err != nil {
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
	task.SetPool(w.kernelPool(st.TaskSlots))
	cache := w.blockCache(st.CacheBytes)
	task.SetCache(cache)
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
	if assign.Trace {
		task.SetTrace(cluster.NewTaskTrace(start))
	}
	if d := w.taskDelay.Load(); d > 0 {
		// The injected stall behaves like a long kernel: it counts as task
		// time, exactly as a real computation would.
		time.Sleep(time.Duration(d))
	}
	err := st.exec.RunTask(task, fetch, ahead, emit)
	taskDur := time.Since(start)
	m := task.Metrics()
	m.FetchSeconds, m.TaskSeconds = fetchSecs, taskDur.Seconds()
	if reg := w.reg.Load(); reg != nil {
		reg.Counter(obs.MWorkerTasksTotal).Inc()
		reg.Histogram(obs.MWorkerTaskSeconds).Observe(taskDur.Seconds())
		reg.Counter(obs.MWorkerFetchBytes).Add(m.ConsolidationBytes)
		reg.Counter(obs.MWorkerResultBytes).Add(m.AggregationBytes)
		if m.CacheHits+m.CacheMisses > 0 {
			reg.Counter(obs.MCacheHits).Add(m.CacheHits)
			reg.Counter(obs.MCacheMisses).Add(m.CacheMisses)
			reg.Counter(obs.MCacheEvictions).Add(m.CacheEvictions)
			reg.Gauge(obs.MCacheResidentBytes).Set(float64(cache.ResidentBytes()))
		}
		reg.PublishKernelPool(w.KernelPool())
	}
	if q.finish() != nil {
		return false // the stream is dead: no msgDone or msgFail can follow
	}
	if err != nil {
		return s.writeGob(msgFail, taskFail{Err: err.Error()}) == nil
	}
	return s.writeGob(msgDone, taskDone{Metrics: m, Spans: task.Trace().Spans()}) == nil
}
