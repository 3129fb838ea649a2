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
// processes. It holds what running them takes: the cluster shape it was
// opened with (Config, whose Nodes is the worker count), its stats totals and
// its seat at a dispatch gate. It refuses a bare closure stage (RunStage).
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
// change refreshes the membership metrics; dispatch reads who is active per
// stage, so nothing else needs telling. Workers are not told: nothing
// on a worker depends on who else is in the cluster. Plans compile for the
// seed cluster shape (Config), and placement follows the active workers per
// stage.
//
// Scheduling is the stage driver both backends share (sched.Run: home
// queues, TasksPerNode lanes per live worker, the one steal rule, retries);
// the coordinator supplies one attempt of a task, which runs over a
// persistent task stream taken from the worker's idle list (dialled only when
// the list is empty, re-dialled once when an idle stream turns out to have
// died). A stream is handed the stage descriptor once per stage it carries
// and tasks by id after that. A retry moves to another live worker. Stages of
// independent operators run at once and share the workers' lanes, so a
// worker runs at most TasksPerNode tasks whatever is in flight.
//
// The coordinator meters real wire traffic into cluster.Stats. Bytes with a
// simulated counterpart land in the matching counter so the two backends are
// directly comparable: non-colocated input fetches are consolidation
// traffic, and partial/aggregate result uploads are aggregation traffic.
// Bytes the simulation does not model — colocated input shipments (local
// reads in a real deployment), fuse-phase partial re-delivery, final result
// blocks — are recorded separately as ExtraWireBytes.
type Coordinator struct {
	// Seat is the coordinator's place at its dispatch gate. Its own gate has
	// no cap on the tasks running at once: the workers run them, not this
	// process, so their lanes alone bound them, however many join.
	*sched.Seat

	// cfg is the cluster shape: plans compile against it, and every
	// stageAssign ships its TasksPerNode, which bounds the kernel pool's
	// shared helper budget on the worker. Each worker sizes its kernel threads against its
	// own GOMAXPROCS — worker machines need not match the coordinator's.
	cfg cluster.Config

	statsMu sync.Mutex
	stats   cluster.Stats // every stage's, folded as it ends

	rcfg Config            // transport tuning, validated and defaulted
	mem  *membership.Table // the one record of the workers and their liveness

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

	// stageSeq numbers the stages this coordinator runs: a task stream is
	// shipped a stage's descriptor once, the first time it carries one of
	// the stage's tasks.
	stageSeq atomic.Uint64

	reg atomic.Pointer[obs.Registry] // the session's metrics; nil disables
}

// SetObs attaches the session's metrics registry — heartbeat RTT, retry and
// membership metrics; nil publishes none. Tasks are not reported here: each
// attempt goes to its own stage (rt.Stage.TaskDone), and whether a worker
// traces a task's body is its stage's (rt.Stage.Trace). Safe to call anytime.
func (c *Coordinator) SetObs(reg *obs.Registry) {
	c.reg.Store(reg)
	if reg != nil {
		c.publishMembership(reg)
		// Catch the counter up to the epoch: the seed workers joined during
		// construction, before any registry was attached, and the counter is
		// documented to equal the epoch. Registries are shared across a
		// serve pool's sessions, so only add this coordinator's shortfall.
		ctr := reg.Counter(obs.MMembershipChanges)
		if delta := int64(c.mem.Epoch()) - ctr.Value(); delta > 0 {
			ctr.Add(delta)
		}
	}
}

// publishMembership sets the membership gauges from the table: workers per
// state, and the active count.
func (c *Coordinator) publishMembership(reg *obs.Registry) {
	for st, n := range c.mem.CountByState() {
		reg.Gauge(obs.ClusterWorkersGauge(st.String())).Set(float64(n))
	}
	reg.Gauge(obs.MWorkersAlive).Set(float64(c.ActiveCount()))
}

// workerConn is the coordinator's connection state for one worker; whether
// the worker takes tasks is its membership row's state, not a field here.
type workerConn struct {
	id   int
	addr string

	// ctrl is the control connection. Only the ping/pong exchange uses it,
	// from the worker's heartbeat goroutine alone.
	// ptrMu guards the pointer, so a probe can swap in a fresh connection
	// while Close interrupts a blocked exchange by closing the old one.
	ptrMu sync.Mutex
	ctrl  net.Conn

	// probeMu serializes suspect-state probes for this worker.
	probeMu sync.Mutex

	// idle holds the worker's task streams that are not running a task, at
	// most as many as it ever ran tasks at once (peak; at least
	// TasksPerNode). A task takes one and puts it back when it ended
	// cleanly, so a stream and its arena serve task after task.
	idleMu  sync.Mutex
	idle    []*stream
	running int // tasks in flight on the worker, under idleMu
	peak    int // the most tasks ever in flight at once, under idleMu
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

// takeIdle counts a task in flight on w and pops an idle task stream for it,
// or returns nil.
func (w *workerConn) takeIdle() *stream {
	w.idleMu.Lock()
	defer w.idleMu.Unlock()
	w.running++
	w.peak = max(w.peak, w.running)
	if n := len(w.idle); n > 0 {
		s := w.idle[n-1]
		w.idle = w.idle[:n-1]
		return s
	}
	return nil
}

// putIdle ends a task in flight on w (takeIdle) and parks its stream s when
// the task ended cleanly (s not nil). The stream is closed instead when the
// coordinator is closing, the worker no longer takes tasks or as many
// streams are parked as the worker ever ran tasks at once (and at least
// TasksPerNode): that many can be in use together again.
func (c *Coordinator) putIdle(w *workerConn, s *stream) {
	w.idleMu.Lock()
	w.running--
	keep := s != nil && !c.closed.Load() && c.mem.IsActive(w.id) && len(w.idle) < max(w.peak, c.cfg.TasksPerNode)
	if keep {
		w.idle = append(w.idle, s)
	}
	w.idleMu.Unlock()
	if !keep && s != nil {
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
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Coordinator{
		Seat:   cfg.Seat(sched.New(cfg.TasksPerNode, 0)),
		cfg:    cfg,
		rcfg:   rcfg,
		mem:    membership.NewTable(),
		hbStop: make(chan struct{}),
	}
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

// onMembershipChange is the membership.Table change hook: refresh the
// membership metrics.
func (c *Coordinator) onMembershipChange() {
	if reg := c.reg.Load(); reg != nil {
		reg.Counter(obs.MMembershipChanges).Inc()
		c.publishMembership(reg)
	}
}

// pingWorker runs one ping/pong exchange on the control connection and
// feeds the heartbeat RTT histogram and the per-worker RTT gauge. A pong is
// an empty frame: one with a payload is refused.
func (c *Coordinator) pingWorker(w *workerConn) error {
	sent := time.Now()
	cn := w.conn()
	cn.SetDeadline(sent.Add(c.rcfg.HeartbeatTimeout))
	if err := writeFrame(cn, msgPing, nil); err != nil {
		return err
	}
	if _, err := expectFrame(cn, msgPong, 0); err != nil {
		return err
	}
	rtt := time.Since(sent)
	if reg := c.reg.Load(); reg != nil {
		reg.Histogram(obs.MHeartbeatRTT).Observe(rtt.Seconds())
		reg.Gauge(obs.WorkerRTTGauge(w.id)).Set(rtt.Seconds())
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
func (c *Coordinator) Config() cluster.Config { return c.cfg }

// Stats returns the stats of every stage run since the last ResetStats.
func (c *Coordinator) Stats() cluster.Stats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.stats
}

// ResetStats clears accumulated metrics.
func (c *Coordinator) ResetStats() {
	c.statsMu.Lock()
	c.stats = cluster.Stats{}
	c.statsMu.Unlock()
}

// ErrNoDescriptor refuses a stage the workers cannot run: a bare closure, or
// an rt.Stage without its descriptor, Fetch or Collect. A worker rebuilds a
// stage from its spec.Stage.
var ErrNoDescriptor = errors.New("remote: a TCP stage needs a descriptor")

// RunStage refuses a bare closure with ErrNoDescriptor and counts no stage:
// the method is there for rt.Runtime alone. Every executor stage carries a
// descriptor and runs through RunSpecStage.
func (c *Coordinator) RunStage(name string, _ int, _ func(t *cluster.Task) error) error {
	return fmt.Errorf("stage %q: %w", name, ErrNoDescriptor)
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
// match the simulated communication model, and the coordinator's share of
// moving it: the block requests it served and the time inside rt.Stage's
// Fetch and Collect.
type wireMeter struct {
	consolidation atomic.Int64 // non-colocated input fetches
	aggregation   atomic.Int64 // partial/aggregate result uploads
	extra         atomic.Int64 // traffic the simulation does not model

	fetches      atomic.Int64 // block requests served
	fetchNanos   atomic.Int64 // inside rt.Stage.Fetch
	collectNanos atomic.Int64 // inside rt.Stage.Collect
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
// the stage driver, through the coordinator's Seat; the home of a task is
// taskID mod workers, as on the simulated backend. The table is
// read once for the lanes: a worker that leaves the Active state before its
// lanes start has them run its tasks elsewhere (attemptWorker). Stages may
// run concurrently; each reports its own stats through st.Report.
func (c *Coordinator) RunSpecStage(st *rt.Stage) error {
	sp := st.Spec
	if sp == nil || st.Fetch == nil || st.Collect == nil {
		return fmt.Errorf("stage %q: %w", st.Name, ErrNoDescriptor)
	}
	start := time.Now()
	gen := c.stageSeq.Add(1)
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
	reg := c.reg.Load()
	steals, err := c.Seat.Run(sp.Name, sp.NumTasks, active, func(node, taskID, attempt int) error {
		if attempt > 0 {
			reg.Counter(obs.MRetriesTotal).Inc()
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
		if st.TaskDone != nil {
			// The attempt goes to its stage: the dispatch-to-done window,
			// and the body the worker timed and traced inside it. Its
			// latency is attributed to the worker that ran it (the thief
			// under work-stealing, the retry target after a death) for
			// straggler detection; a failed attempt to none.
			worker := w.id
			if err != nil {
				worker = -1
			}
			st.TaskDone(obs.TaskSample{ID: taskID, Worker: worker, Remote: true,
				StageStart: start, Start: taskStart, End: time.Now(),
				Spans: done.Spans, Metrics: done.Metrics, Err: err})
		}
		if err != nil {
			return err
		}
		mu.Lock()
		stage.Add(done.Metrics)
		mu.Unlock()
		collect := time.Now()
		err = st.Collect(taskID, done.blocks)
		wire.collectNanos.Add(int64(time.Since(collect)))
		return err
	})
	if err != nil {
		return err
	}

	// The byte counters are what crossed the wire, not the workers' own
	// SizeBytes accounting.
	stage.ConsolidationBytes = wire.consolidation.Load()
	stage.AggregationBytes = wire.aggregation.Load()
	stage.ExtraWireBytes = wire.extra.Load()
	stage.StealTasks = steals
	stage.FetchCalls = wire.fetches.Load()
	stage.FetchServeSeconds = time.Duration(wire.fetchNanos.Load()).Seconds()
	stage.CollectSeconds = time.Duration(wire.collectNanos.Load()).Seconds()
	stage.WallSeconds = time.Since(start).Seconds()
	c.statsMu.Lock()
	c.stats.Add(stage)
	c.statsMu.Unlock()
	if st.Report != nil {
		st.Report(stage)
	}
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
				c.putIdle(w, nil)
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
			c.putIdle(w, nil)
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
			Stage:     *st.Spec,
			Gen:       gen,
			TaskSlots: c.cfg.TasksPerNode,
		}); err != nil {
			return res, false, transportError{err}
		}
		s.gen, s.blockSize = gen, st.Spec.BlockSize
	}
	if err := s.writeGob(msgTask, taskAssign{
		TaskID: taskID,
		Gen:    gen,
		Trace:  st.Trace,
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
			if err := wire.serveFetch(s, st, ref, colocated); err != nil {
				return res, true, transportError{err}
			}
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

// serveFetch resolves one block request, sends the msgBlock reply and meters
// it: the call, the time inside st.Fetch and the reply's wire size (the FME1
// bytes, or the error text) — consolidation for a non-colocated input, extra
// otherwise. err is a transport failure of the reply itself.
func (m *wireMeter) serveFetch(s *stream, st *rt.Stage, ref spec.BlockRef, colocated map[int]bool) error {
	from := time.Now()
	blk, ferr := st.Fetch(ref)
	m.fetchNanos.Add(int64(time.Since(from)))
	m.fetches.Add(1)
	var n int64
	var err error
	switch {
	case ferr != nil:
		msg := ferr.Error()
		n, err = int64(len(msg)), s.send(append(append(s.begin(msgBlock), blockError), msg...))
	case blk == nil:
		err = s.writeBlock(nil)
	default:
		n, err = int64(matrix.EncodedSize(blk)), s.writeBlock(blk)
	}
	if err != nil {
		return err
	}
	if ref.Kind == spec.RefInput && !colocated[ref.Node] {
		m.consolidation.Add(n)
	} else {
		m.extra.Add(n)
	}
	return nil
}
