package remote

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fuseme/internal/cluster"
	"fuseme/internal/matrix"
	"fuseme/internal/membership"
	"fuseme/internal/obs"
	"fuseme/internal/rt"
	"fuseme/internal/rt/spec"
	"fuseme/internal/sched"
)

// Coordinator is the TCP runtime backend: it satisfies rt.Runtime (and
// rt.SpecRunner) by scheduling descriptor-based stages over a set of worker
// processes. Closure-only stages — and all bookkeeping the simulated
// cluster already does (admission control, stats accumulation) — run on an
// embedded local cluster whose Nodes count is the number of workers.
//
// Membership is elastic: each worker is a row in a membership.Table with a
// liveness state machine (joining → active → suspect → dead → left), and that
// table is the coordinator's one record of which workers exist and which take
// tasks — a worker runs tasks exactly while its row is Active. The initial
// worker set is dialed at construction; further workers join at any time
// through the join listener (ServeJoin / AddWorker) and drain away
// voluntarily (msgLeave). A transport failure does not kill a worker
// outright: the worker turns suspect, dispatch pauses, and one fresh-dial
// probe decides between recovery and eviction. Every accepted membership
// change resizes the dispatch scheduler to active-workers x TasksPerNode
// slots and refreshes the membership metrics. Workers are not told: nothing
// on a worker depends on who else is in the cluster. Plans compile for the
// seed cluster shape (Config), and placement follows the active workers per
// stage.
//
// Scheduling is the stage driver both backends share (sched.Run: home
// queues, TasksPerNode lanes per live worker, the one steal rule, retries);
// the coordinator supplies one attempt of a task, which runs over a
// persistent task stream taken from the worker's idle list (dialled only when
// the list is empty, re-dialled once when an idle stream turns out to have
// died). A stream is handed the stage descriptor once per stage generation
// and tasks by id after that. A retry moves to another live worker.
//
// The coordinator keeps no record of what the workers' block caches hold:
// each task keeps its worker's cache coherent from the stage descriptor
// alone (exec drops the stale epochs it names), so nothing about a cache
// crosses the wire.
//
// The coordinator meters real wire traffic into cluster.Stats. Bytes with a
// simulated counterpart land in the matching counter so the two backends are
// directly comparable: non-colocated input fetches are consolidation
// traffic, and partial/aggregate result uploads are aggregation traffic.
// Bytes the simulation does not model — colocated input shipments (local
// reads in a real deployment), fuse-phase partial re-delivery, final result
// blocks — are recorded separately as ExtraWireBytes.
type Coordinator struct {
	local *cluster.Cluster
	rcfg  Config            // transport tuning, validated and defaulted
	mem   *membership.Table // the one record of the workers and their liveness

	// addMu serializes membership-mutating operations (AddWorker, leave) so
	// member IDs always equal their slot in the workers slice.
	addMu sync.Mutex

	// wmu guards the workers slice itself. Slots are append-only: a dead or
	// departed worker keeps its slot (its row is terminal) so IDs stay stable.
	wmu     sync.RWMutex
	workers []*workerConn

	hbStop chan struct{}
	hbWG   sync.WaitGroup
	closed atomic.Bool

	// Join listener (ServeJoin), nil until started.
	joinMu sync.Mutex
	joinLn net.Listener
	joinWG sync.WaitGroup

	// Intra-task parallelism settings shipped verbatim in every stageAssign.
	// kernelThreads is the cluster config's explicit count (0 = each worker
	// auto-sizes against its own core count — worker machines need not match
	// the coordinator's); taskSlots is TasksPerNode, which bounds the pool's
	// shared helper budget on the worker.
	kernelThreads int
	taskSlots     int

	obs atomic.Pointer[obs.Obs] // session observability; nil disables
}

// SetObs attaches the session's observability bundle: heartbeat RTT, retry
// and worker-liveness metrics plus per-task spans for remote executions
// (whose in-process task closures never run here). Safe to call anytime.
func (c *Coordinator) SetObs(o *obs.Obs) {
	c.obs.Store(o)
	if o != nil {
		c.publishMembership(o)
		// Catch the counter up to the epoch: the seed workers joined during
		// construction, before any bundle was attached, and the counter is
		// documented to equal the epoch. Registries are shared across a
		// serve pool's sessions, so only add this coordinator's shortfall.
		ctr := o.Counter(obs.MMembershipChanges)
		if delta := int64(c.mem.Epoch()) - ctr.Value(); delta > 0 {
			ctr.Add(delta)
		}
	}
}

// publishMembership sets the membership gauges from the table: workers per
// state, and the active count.
func (c *Coordinator) publishMembership(o *obs.Obs) {
	for st, n := range c.mem.CountByState() {
		o.Gauge(obs.ClusterWorkersGauge(st.String())).Set(float64(n))
	}
	o.Gauge(obs.MWorkersAlive).Set(float64(c.ActiveCount()))
}

// getObs returns the attached observability bundle (nil-safe to use).
func (c *Coordinator) getObs() *obs.Obs { return c.obs.Load() }

// SetScheduler installs a shared task-dispatch scheduler (nil is ignored).
// Call before running stages. The coordinator dispatches through its
// embedded cluster's, which starts as one of active workers x TasksPerNode
// slots; membership changes resize whichever scheduler is installed — with a
// shared scheduler that is a cluster-wide capacity change, which is exactly
// right: the slots model the one physical cluster every tenant runs on.
func (c *Coordinator) SetScheduler(s *sched.Scheduler) { c.local.SetScheduler(s) }

// SetTenant tags this coordinator's subsequent stages with a tenant name and
// scheduling weight for the (shared) dispatch scheduler.
func (c *Coordinator) SetTenant(name string, weight int) { c.local.SetTenant(name, weight) }

// workerConn is the coordinator's connection state for one worker; whether
// the worker takes tasks is its membership row's state, not a field here.
type workerConn struct {
	id   int
	addr string

	// ctrl is the control connection. Only the ping/pong exchange uses it —
	// AddWorker's first ping, then the worker's heartbeat goroutine alone.
	// ptrMu guards the pointer, so a probe can swap in a fresh connection
	// while Close interrupts a blocked exchange by closing the old one.
	ptrMu sync.Mutex
	ctrl  net.Conn

	// probeMu serializes suspect-state probes for this worker.
	probeMu sync.Mutex

	// idle holds the worker's task streams that are not running a task, at
	// most one per dispatch lane (TasksPerNode). A lane takes one per task
	// and puts it back when the task ended cleanly.
	idleMu sync.Mutex
	idle   []*stream

	// Clock-skew estimate for this worker, fed by ping/pong samples. The
	// lowest-RTT sample wins (see skew.go); sampled guards the first write.
	clockMu  sync.Mutex
	rttBest  time.Duration
	clockOff time.Duration
	sampled  bool
}

// conn returns the current control connection.
func (w *workerConn) conn() net.Conn {
	w.ptrMu.Lock()
	defer w.ptrMu.Unlock()
	return w.ctrl
}

// setConn swaps the control connection, returning the old one.
func (w *workerConn) setConn(c net.Conn) net.Conn {
	w.ptrMu.Lock()
	old := w.ctrl
	w.ctrl = c
	w.ptrMu.Unlock()
	return old
}

// takeIdle pops an idle task stream, or returns nil.
func (w *workerConn) takeIdle() *stream {
	w.idleMu.Lock()
	defer w.idleMu.Unlock()
	if n := len(w.idle); n > 0 {
		s := w.idle[n-1]
		w.idle = w.idle[:n-1]
		return s
	}
	return nil
}

// putIdle parks a stream whose task ended cleanly; it is closed instead when
// the coordinator is closing, the worker no longer takes tasks or every
// lane already has one parked.
func (c *Coordinator) putIdle(w *workerConn, s *stream) {
	w.idleMu.Lock()
	keep := !c.closed.Load() && c.mem.IsActive(w.id) && len(w.idle) < c.taskSlots
	if keep {
		w.idle = append(w.idle, s)
	}
	w.idleMu.Unlock()
	if !keep {
		s.close()
	}
}

// closeIdle closes every parked task stream.
func (w *workerConn) closeIdle() {
	w.idleMu.Lock()
	idle := w.idle
	w.idle = nil
	w.idleMu.Unlock()
	for _, s := range idle {
		s.close()
	}
}

// recordClock folds one ping/pong sample into the skew estimate.
func (w *workerConn) recordClock(rtt, offset time.Duration) {
	w.clockMu.Lock()
	if !w.sampled || rtt < w.rttBest {
		w.rttBest, w.clockOff, w.sampled = rtt, offset, true
	}
	w.clockMu.Unlock()
}

// clockOffset returns the current worker-minus-coordinator clock estimate.
func (w *workerConn) clockOffset() time.Duration {
	w.clockMu.Lock()
	defer w.clockMu.Unlock()
	return w.clockOff
}

// transportError marks failures of the coordinator↔worker channel (dial,
// read, write): the worker turns suspect and the task retries elsewhere.
type transportError struct{ err error }

func (e transportError) Error() string { return e.err.Error() }
func (e transportError) Unwrap() error { return e.err }

// NewCoordinator connects to every worker address and returns a runtime
// backed by them, with default transport tuning. cfg.Nodes is overridden with
// the worker count, so planners compile for the parallelism that exists at
// construction; Config keeps that shape when workers later join or leave.
func NewCoordinator(cfg cluster.Config, addrs []string) (*Coordinator, error) {
	return NewCoordinatorConfig(cfg, addrs, DefaultConfig())
}

// NewCoordinatorConfig is NewCoordinator with explicit transport tuning
// (zero fields take defaults).
func NewCoordinatorConfig(cfg cluster.Config, addrs []string, rcfg Config) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, errors.New("remote: no worker addresses")
	}
	if err := rcfg.Validate(); err != nil {
		return nil, err
	}
	rcfg = rcfg.withDefaults()
	cfg.Nodes = len(addrs)
	local, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		local:         local,
		rcfg:          rcfg,
		mem:           membership.NewTable(),
		hbStop:        make(chan struct{}),
		kernelThreads: cfg.KernelThreads,
		taskSlots:     cfg.TasksPerNode,
	}
	local.SetScheduler(sched.New(len(addrs) * cfg.TasksPerNode))
	c.mem.OnChange(c.onMembershipChange)
	for _, addr := range addrs {
		if _, err := c.AddWorker(addr); err != nil {
			c.Close()
			return nil, fmt.Errorf("remote: worker %s: %w", addr, err)
		}
	}
	return c, nil
}

// dialHandshake opens a control connection to a worker and completes the
// hello/helloAck protocol handshake.
func (c *Coordinator) dialHandshake(addr string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, c.rcfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(c.rcfg.HeartbeatTimeout))
	if err := writeGob(conn, msgHello, hello{Proto: protoVersion}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	payload, err := expectFrame(conn, msgHelloAck, maxControlFrame)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	var ack helloAck
	if err := decodeGob(payload, &ack); err != nil || ack.Proto != protoVersion {
		conn.Close()
		return nil, errors.New("protocol mismatch")
	}
	conn.SetDeadline(time.Time{})
	return conn, nil
}

// AddWorker dials, handshakes and admits one worker, growing the cluster.
// It is how the initial worker set boots and how msgJoin requests land;
// joining an address that is already a live member is an idempotent no-op
// (a worker's reconnect loop can race its own successful registration).
// The new worker's stable ID is returned.
func (c *Coordinator) AddWorker(addr string) (int, error) {
	if c.closed.Load() {
		return -1, errors.New("remote: coordinator closed")
	}
	c.addMu.Lock()
	defer c.addMu.Unlock()
	for _, m := range c.mem.Members() {
		switch m.State {
		case membership.Joining, membership.Active, membership.Suspect:
			if m.Addr == addr {
				return m.ID, nil
			}
		}
	}
	conn, err := c.dialHandshake(addr)
	if err != nil {
		return -1, err
	}
	m := c.mem.Join(addr)
	w := &workerConn{id: m.ID, addr: addr, ctrl: conn}
	c.wmu.Lock()
	c.workers = append(c.workers, w)
	c.wmu.Unlock()
	// Prime the clock-skew estimator with one ping before the worker takes
	// tasks, so even a trace captured immediately after the join merges
	// against a real offset sample rather than zero.
	if err := c.pingWorker(w); err != nil {
		conn.Close()
		c.mem.MarkDead(m.ID)
		return -1, err
	}
	if _, err := c.mem.Activate(m.ID); err != nil {
		return -1, err
	}
	c.hbWG.Add(1)
	go c.heartbeat(w)
	return m.ID, nil
}

// removeWorker records a voluntary departure of the worker at addr: no new
// dispatch, in-flight tasks finish on their private task connections.
func (c *Coordinator) removeWorker(addr string) error {
	c.addMu.Lock()
	defer c.addMu.Unlock()
	for _, m := range c.mem.Members() {
		if m.Addr != addr || (m.State != membership.Active && m.State != membership.Suspect) {
			continue
		}
		w := c.workerByID(m.ID)
		if w == nil {
			continue
		}
		if _, err := c.mem.Leave(m.ID); err != nil {
			return err
		}
		if cn := w.conn(); cn != nil {
			cn.Close()
		}
		w.closeIdle()
		return nil
	}
	return fmt.Errorf("remote: no live worker at %s", addr)
}

// onMembershipChange is the membership.Table change hook: resize the
// dispatch scheduler and refresh the membership metrics.
func (c *Coordinator) onMembershipChange() {
	c.local.Scheduler().Resize(c.mem.ActiveCount() * c.taskSlots)
	if o := c.getObs(); o.Enabled() {
		o.Counter(obs.MMembershipChanges).Inc()
		c.publishMembership(o)
	}
}

// pingWorker runs one ping/pong exchange on the control connection: it feeds
// the heartbeat RTT histogram, the per-worker RTT gauge and the worker's
// clock-skew estimate.
func (c *Coordinator) pingWorker(w *workerConn) error {
	sent := time.Now()
	cn := w.conn()
	cn.SetDeadline(sent.Add(c.rcfg.HeartbeatTimeout))
	if err := writeFrame(cn, msgPing, nil); err != nil {
		return err
	}
	payload, err := expectFrame(cn, msgPong, maxControlFrame)
	if err != nil {
		return err
	}
	recv := time.Now()
	var p pong
	if err := decodeGob(payload, &p); err != nil {
		return err
	}
	rtt, offset := clockOffsetSample(sent, recv, p.UnixNano)
	w.recordClock(rtt, offset)
	if o := c.getObs(); o.Enabled() {
		o.Histogram(obs.MHeartbeatRTT).Observe(rtt.Seconds())
		o.Gauge(obs.WorkerRTTGauge(w.id)).Set(rtt.Seconds())
	}
	return nil
}

// heartbeat pings one worker until it reaches a terminal state or the
// coordinator closes, recording each round-trip time. A failed ping routes
// through the suspect state: one probe decides recovery versus eviction.
func (c *Coordinator) heartbeat(w *workerConn) {
	defer c.hbWG.Done()
	t := time.NewTicker(c.rcfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-c.hbStop:
			return
		case <-t.C:
			m, ok := c.mem.Get(w.id)
			if !ok || m.State == membership.Dead || m.State == membership.Left {
				return
			}
			if m.State != membership.Active {
				continue // probe in flight on another goroutine
			}
			if err := c.pingWorker(w); err != nil {
				if !c.suspectAndProbe(w) {
					if m, ok := c.mem.Get(w.id); !ok || m.State == membership.Dead || m.State == membership.Left {
						return
					}
				}
			}
		}
	}
}

// suspectAndProbe is the satellite of every transport failure: pause
// dispatch (active → suspect), then probe the worker once with a fresh
// dial-plus-handshake. Success swaps in the new control connection and
// returns the worker to active; failure evicts it (suspect → dead).
// Returns true when the worker ends up active. Probes are serialized per
// worker; a caller that lost the race against a successful probe reports
// the recovered state without probing again.
func (c *Coordinator) suspectAndProbe(w *workerConn) bool {
	if c.closed.Load() {
		return false
	}
	w.probeMu.Lock()
	defer w.probeMu.Unlock()
	m, ok := c.mem.Get(w.id)
	if !ok {
		return false
	}
	switch m.State {
	case membership.Active:
		if _, err := c.mem.Suspect(w.id); err != nil {
			return c.mem.IsActive(w.id)
		}
		// Whatever broke the worker's channel very likely broke its parked
		// streams too; the lanes dial fresh ones if the probe recovers it.
		w.closeIdle()
	case membership.Suspect:
		// Stale row from an interrupted probe; probe now.
	default:
		return false
	}
	conn, err := c.dialHandshake(w.addr)
	if err != nil {
		c.mem.MarkDead(w.id)
		return false
	}
	if old := w.setConn(conn); old != nil {
		old.Close()
	}
	if _, err := c.mem.Confirm(w.id); err != nil {
		conn.Close()
		return false
	}
	return true
}

// ActiveCount reports how many workers take tasks (are Active in the table).
func (c *Coordinator) ActiveCount() int { return c.mem.ActiveCount() }

// Members returns the membership table snapshot, in ID order.
func (c *Coordinator) Members() []membership.Member { return c.mem.Members() }

// ClusterEpoch returns the membership table's change counter.
func (c *Coordinator) ClusterEpoch() uint64 { return c.mem.Epoch() }

// MembershipWatch returns a channel closed at the next membership change.
// Snapshot the channel, inspect Members()/ClusterEpoch(), and block on the
// channel only if the awaited condition does not hold yet — the event-driven
// replacement for sleep-polling the table.
func (c *Coordinator) MembershipWatch() <-chan struct{} { return c.mem.Watch() }

// snapshotWorkers returns the worker slice under the read lock. Slot i is
// member ID i, always.
func (c *Coordinator) snapshotWorkers() []*workerConn {
	c.wmu.RLock()
	defer c.wmu.RUnlock()
	out := make([]*workerConn, len(c.workers))
	copy(out, c.workers)
	return out
}

// workerByID returns the worker in slot id, or nil.
func (c *Coordinator) workerByID(id int) *workerConn {
	c.wmu.RLock()
	defer c.wmu.RUnlock()
	if id < 0 || id >= len(c.workers) {
		return nil
	}
	return c.workers[id]
}

// Config returns the cluster shape the planners compile against.
func (c *Coordinator) Config() cluster.Config { return c.local.Config() }

// Stats returns accumulated metrics (local stages + remote wire metering).
func (c *Coordinator) Stats() cluster.Stats { return c.local.Stats() }

// LastStageStats returns the most recent stage's own metrics.
func (c *Coordinator) LastStageStats() cluster.Stats { return c.local.LastStageStats() }

// ResetStats clears accumulated metrics.
func (c *Coordinator) ResetStats() { c.local.ResetStats() }

// CheckAdmission applies the per-task memory budget, as under simulation.
func (c *Coordinator) CheckAdmission(estTaskMemBytes int64, what string) error {
	return c.local.CheckAdmission(estTaskMemBytes, what)
}

// RunStage executes a bare closure in-process on the coordinator, on the
// embedded cluster's model clock. No executor stage comes this way: they all
// carry a descriptor and run through RunSpecStage.
func (c *Coordinator) RunStage(name string, numTasks int, fn func(t *cluster.Task) error) error {
	return c.local.RunStage(name, numTasks, fn)
}

// Close stops heartbeats, the join listener and releases worker
// connections. Workers themselves keep running and can serve another
// coordinator.
func (c *Coordinator) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	close(c.hbStop)
	c.joinMu.Lock()
	if c.joinLn != nil {
		c.joinLn.Close()
	}
	c.joinMu.Unlock()
	for _, w := range c.snapshotWorkers() {
		if cn := w.conn(); cn != nil {
			cn.Close()
		}
		w.closeIdle()
	}
	c.hbWG.Wait()
	c.joinWG.Wait()
	return nil
}

// wireMeter accumulates one stage's measured wire traffic, classified to
// match the simulated communication model.
type wireMeter struct {
	consolidation atomic.Int64 // non-colocated input fetches
	aggregation   atomic.Int64 // partial/aggregate result uploads
	extra         atomic.Int64 // traffic the simulation does not model
}

func (m *wireMeter) countFetch(ref spec.BlockRef, n int64, colocated map[int]bool) {
	switch {
	case ref.Kind == spec.RefInput && !colocated[ref.Node]:
		m.consolidation.Add(n)
	default:
		m.extra.Add(n)
	}
}

func (m *wireMeter) countResult(ob spec.OutBlock) {
	n := int64(ob.WireBytes)
	// Everything but a final block is shuffled: a partial product, or a
	// task-local aggregate of whichever output its kind byte names.
	if ob.Kind == spec.OutFinal {
		m.extra.Add(n)
	} else {
		m.aggregation.Add(n)
	}
}

// RunSpecStage distributes one descriptor stage over the active workers on
// the stage driver (the embedded cluster's Dispatch), whose home of a task,
// taskID mod workers, is the simulated backend's cache home too. The table is
// read once for the lanes: a worker that leaves the Active state before its
// lanes start has them run its tasks elsewhere (attemptWorker).
func (c *Coordinator) RunSpecStage(st *rt.Stage) error {
	sp := st.Spec
	if sp == nil || st.Fetch == nil || st.Collect == nil {
		return errors.New("remote: stage without descriptor/fetch/collect")
	}
	start := time.Now()
	// One generation per stage: blocks cached by this stage's tasks become
	// hit-visible only to later stages, keeping hit counts deterministic
	// under concurrent task scheduling. Drawn from the embedded cluster's
	// counter so closure stages and descriptor stages share one sequence.
	gen := c.local.NextStageGen()
	colocated := make(map[int]bool, len(sp.Colocated))
	for _, id := range sp.Colocated {
		colocated[id] = true
	}
	ws := c.snapshotWorkers()
	active := make([]bool, len(ws))
	for i := range ws {
		active[i] = c.mem.IsActive(i)
	}

	var (
		wire  wireMeter
		mu    sync.Mutex
		stage = cluster.Stats{Stages: 1, Tasks: sp.NumTasks} // the tasks' metering, under mu
	)
	o := c.getObs()
	perTask := o.PerTask()
	if o.Tracing() {
		// Label the merged timeline's process tracks: the coordinator's own
		// spans on PIDLocal, each worker's shipped spans on its own track.
		o.Trace.SetProcessName(obs.PIDLocal, "coordinator")
		for _, w := range ws {
			o.Trace.SetProcessName(obs.PIDWorkerBase+w.id, fmt.Sprintf("worker %d (%s)", w.id, w.addr))
		}
	}
	steals, err := c.local.Dispatch(sp.Name, sp.NumTasks, active, func(node, taskID, attempt int) error {
		if attempt > 0 {
			o.Counter(obs.MRetriesTotal).Inc()
		}
		w := c.attemptWorker(node, taskID, attempt)
		if w == nil {
			return errors.New("remote: no live workers")
		}
		taskStart := time.Now()
		done, err := c.runTaskOn(w, st, taskID, gen, &wire, colocated)
		var te transportError
		if errors.As(err, &te) {
			c.suspectAndProbe(w)
		}
		if perTask {
			// The executor's per-task wrapper only fires for in-process
			// closures, so remote task telemetry is reported here. The
			// coordinator's own span is the scheduling view (cat "sched");
			// the execution view (cat "task" with its sub-spans) arrives
			// worker-side in done.Spans and merges onto the worker's track.
			// The dispatch-to-done latency is attributed to the worker that
			// ran the attempt (the thief under work-stealing, the retry
			// target after a death) for straggler detection.
			worker := w.id
			if err != nil {
				worker = -1
			}
			m := done.Metrics
			o.TaskDone(obs.TaskSample{ID: taskID, Worker: worker, Cat: "sched",
				StageStart: start, Start: taskStart, Err: err,
				ConsolidationBytes: m.ConsolidationBytes, AggregationBytes: m.AggregationBytes,
				Flops: m.Flops, PeakMemBytes: m.MemPeakBytes})
			o.Counter(obs.MRemoteTasksTotal).Inc()
		}
		if err != nil {
			return err
		}
		if len(done.Spans) > 0 && o.Tracing() {
			// Skew-correct the worker's span batch into the coordinator
			// clock and clamp it into the dispatch window this goroutine
			// observed, then merge onto the worker's process track.
			aligned := AlignSpans(done.Spans, w.clockOffset(), taskStart, time.Now())
			pid := obs.PIDWorkerBase + w.id
			for _, s := range aligned {
				o.Trace.AddSpanAt(s.Name, s.Cat, pid, 1+taskID%64,
					time.Unix(0, s.StartUnixNano), time.Duration(s.DurNanos), nil)
			}
		}
		mu.Lock()
		stage.AddTask(done.Metrics)
		mu.Unlock()
		return st.Collect(taskID, done.blocks)
	})
	if err != nil {
		return err
	}

	// The byte counters are what crossed the wire, not the workers' own
	// SizeBytes accounting; the clock is real time.
	stage.ConsolidationBytes = wire.consolidation.Load()
	stage.AggregationBytes = wire.aggregation.Load()
	stage.ExtraWireBytes = wire.extra.Load()
	stage.StealTasks = steals
	stage.WallSeconds = time.Since(start).Seconds()
	stage.SimSeconds = stage.WallSeconds
	c.local.AddStats(stage)
	return nil
}

// attemptWorker picks the worker for one attempt of a task on lane node: the
// lane's own for the first attempt (the home, or a stolen task's thief), else
// the first active one from (taskID + attempt) mod workers on, so a retry
// moves off a failed worker. It returns nil when no worker is active.
func (c *Coordinator) attemptWorker(node, taskID, attempt int) *workerConn {
	if attempt == 0 && c.mem.IsActive(node) {
		return c.workerByID(node)
	}
	c.wmu.RLock()
	defer c.wmu.RUnlock()
	for i := range c.workers {
		if w := c.workers[(taskID+attempt+i)%len(c.workers)]; c.mem.IsActive(w.id) {
			return w
		}
	}
	return nil
}

// taskResult is a completed task as the coordinator holds it: the worker's
// completion report plus the result blocks that arrived ahead of it, each
// decoded as it arrived.
type taskResult struct {
	taskDone
	blocks []spec.OutBlock
}

// taskError is a failure the worker reported with msgFail: the task body
// returned an error, but the stream carried it cleanly and stays usable.
type taskError string

func (e taskError) Error() string { return string(e) }

// dialStream opens a new task stream to worker w.
func (c *Coordinator) dialStream(w *workerConn) (*stream, error) {
	conn, err := net.DialTimeout("tcp", w.addr, c.rcfg.DialTimeout)
	if err != nil {
		return nil, transportError{err}
	}
	return newStream(conn), nil
}

// runTaskOn runs one task on worker w over one of its task streams — an
// idle one when there is one, a freshly dialled one otherwise — and parks the
// stream again when the task ended cleanly. An idle stream may have died
// since it was parked (a network blip, a restarted worker); if it fails
// before the worker said anything about this task, that is not a task
// failure: the assignment is repeated once on a fresh dial.
func (c *Coordinator) runTaskOn(w *workerConn, st *rt.Stage, taskID int, gen uint64, wire *wireMeter, colocated map[int]bool) (*taskResult, error) {
	s := w.takeIdle()
	parked := s != nil
	for {
		if s == nil {
			var err error
			if s, err = c.dialStream(w); err != nil {
				return &taskResult{}, err
			}
		}
		done, heard, err := c.serveTask(s, st, taskID, gen, wire, colocated)
		var te taskError
		if s.err == nil && (err == nil || errors.As(err, &te)) {
			c.putIdle(w, s)
			return done, err
		}
		s.close()
		if !parked || heard {
			return done, err
		}
		s, parked = nil, false
	}
}

// serveTask assigns the task on stream s — shipping the stage descriptor
// first when the stream has not seen this generation — and serves the
// worker's block fetches and takes its result blocks until it reports done
// or failed. heard reports whether the worker sent anything at all in reply.
func (c *Coordinator) serveTask(s *stream, st *rt.Stage, taskID int, gen uint64, wire *wireMeter, colocated map[int]bool) (res *taskResult, heard bool, err error) {
	res = &taskResult{}
	if s.gen != gen {
		if err := s.writeGob(msgStage, stageAssign{
			Stage:         *st.Spec,
			Gen:           gen,
			KernelThreads: c.kernelThreads,
			TaskSlots:     c.taskSlots,
		}); err != nil {
			return res, false, transportError{err}
		}
		s.gen, s.blockSize = gen, st.Spec.BlockSize
	}
	if err := s.writeGob(msgTask, taskAssign{
		TaskID: taskID,
		Gen:    gen,
		Trace:  c.getObs().Tracing(),
	}); err != nil {
		return res, false, transportError{err}
	}
	for {
		typ, n, err := s.next()
		if err != nil {
			return res, heard, transportError{err}
		}
		heard = true
		if typ == msgResult {
			// A result frame that does not read whole ends the stream like
			// any other failed read.
			ob, err := s.readResult(n)
			if err != nil {
				return res, true, transportError{err}
			}
			res.blocks = append(res.blocks, ob)
			continue
		}
		payload, err := s.payload(n)
		if err != nil {
			return res, true, transportError{err}
		}
		switch typ {
		case msgFetch:
			ref, err := decodeRef(payload)
			if err != nil {
				return res, true, err
			}
			n, err := serveFetch(s, st, ref)
			if err != nil {
				return res, true, transportError{err}
			}
			wire.countFetch(ref, n, colocated)
		case msgDone:
			if err := s.decodeGob(payload, &res.taskDone); err != nil {
				return res, true, err
			}
			for _, ob := range res.blocks {
				wire.countResult(ob)
			}
			return res, true, nil
		case msgFail:
			var fail taskFail
			if err := s.decodeGob(payload, &fail); err != nil {
				return res, true, err
			}
			return res, true, taskError(fail.Err)
		default:
			return res, true, fmt.Errorf("remote: unexpected frame type %d on task stream", typ)
		}
	}
}

// serveFetch resolves one block request and sends the msgBlock reply. n is
// the reply's metered wire size (the FME1 bytes, or the error text); err is a
// transport failure of the reply itself.
func serveFetch(s *stream, st *rt.Stage, ref spec.BlockRef) (n int64, err error) {
	m, ferr := st.Fetch(ref)
	if ferr != nil {
		msg := ferr.Error()
		return int64(len(msg)), s.send(append(append(s.begin(msgBlock), blockError), msg...))
	}
	if m == nil {
		return 0, s.writeBlock(nil)
	}
	return int64(matrix.EncodedSize(m)), s.writeBlock(m)
}
