// Package chaos is the elastic-membership fault-injection harness: it runs
// an iterative workload over real in-process TCP workers while a schedule
// kills, adds, and drains workers between steps, then compares the disturbed
// cluster's results against the same workload run undisturbed on the
// simulated backend. The comparison is the whole point — a cluster that
// loses and gains workers mid-computation must still produce the same
// numbers, because retries re-home tasks and every task pulls its input
// blocks from the coordinator.
package chaos

import (
	"fmt"
	"math"
	"time"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/membership"
	"fuseme/internal/rt"
	"fuseme/internal/rt/remote"
)

// EventKind is a fault-injection action.
type EventKind int

const (
	// Kill hard-stops a worker process: connections die mid-whatever, the
	// coordinator's heartbeat suspects it, the probe fails, eviction.
	Kill EventKind = iota
	// Add spawns a fresh worker and registers it through the coordinator's
	// join listener, growing the cluster mid-run.
	Add
	// Drain announces a voluntary departure (msgLeave), waits for the
	// worker's in-flight tasks, then stops it — the clean downscale path.
	Drain
)

func (k EventKind) String() string {
	switch k {
	case Kill:
		return "kill"
	case Add:
		return "add"
	case Drain:
		return "drain"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event schedules one fault before a workload step.
type Event struct {
	Before int       // the step index this event fires before
	Kind   EventKind // what to do
	Worker int       // worker index for Kill/Drain (spawn order); ignored for Add
}

// Config shapes one harness run.
type Config struct {
	// Workers is the initial worker-process count.
	Workers int
	// Cluster is the cluster shape (Nodes is overridden by Workers).
	Cluster cluster.Config
	// Transport tunes the coordinator; tests use a tight heartbeat so
	// liveness transitions resolve quickly.
	Transport remote.Config
	// Events is the fault schedule.
	Events []Event
	// Tolerance is the maximum relative element difference accepted between
	// the disturbed and undisturbed runs. Zero means exact. Over TCP,
	// partial aggregates merge in task-completion order, so two runs of the
	// same plan can differ by a ULP even without faults; the repo's standard
	// comparison tolerance for TCP-vs-sim is 1e-9.
	Tolerance float64
}

// Workload is a stepwise iterative computation. New builds a fresh instance
// bound to a runtime: step(i) executes one iteration, outputs() returns the
// final matrices to compare.
type Workload struct {
	Name  string
	Steps int
	New   func(rtm rt.Runtime) (step func(i int) error, outputs func() map[string]*block.Matrix, err error)
}

// Report is what a harness run measured.
type Report struct {
	Workload      string              `json:"workload"`
	Steps         int                 `json:"steps"`
	EventsApplied []string            `json:"events_applied"`
	MaxRelDiff    float64             `json:"max_rel_diff"`
	KillRecovery  []float64           `json:"kill_recovery_seconds"` // Close() -> membership dead, per Kill
	WireBytes     int64               `json:"wire_bytes"`
	FinalEpoch    uint64              `json:"final_epoch"`
	FinalMembers  []membership.Member `json:"-"`
}

// Run executes the workload twice — undisturbed on the simulated backend,
// then on a real TCP cluster under the fault schedule — and reports the
// maximum relative difference between the two results along with recovery
// timings. It returns an error if either run fails or the difference
// exceeds cfg.Tolerance.
func Run(cfg Config, wl Workload) (*Report, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("chaos: Workers = %d, want >= 1", cfg.Workers)
	}
	ref, err := referenceRun(cfg, wl)
	if err != nil {
		return nil, fmt.Errorf("chaos: reference run: %w", err)
	}

	h, err := newHarness(cfg)
	if err != nil {
		return nil, err
	}
	defer h.close()
	step, outputs, err := wl.New(h.co)
	if err != nil {
		return nil, fmt.Errorf("chaos: %s setup: %w", wl.Name, err)
	}
	rep := &Report{Workload: wl.Name, Steps: wl.Steps}
	for i := 0; i < wl.Steps; i++ {
		for _, ev := range cfg.Events {
			if ev.Before != i {
				continue
			}
			desc, recovery, err := h.apply(ev)
			if err != nil {
				return nil, fmt.Errorf("chaos: step %d event %s: %w", i, ev.Kind, err)
			}
			rep.EventsApplied = append(rep.EventsApplied, desc)
			if ev.Kind == Kill {
				rep.KillRecovery = append(rep.KillRecovery, recovery.Seconds())
			}
		}
		if err := step(i); err != nil {
			return nil, fmt.Errorf("chaos: %s step %d: %w", wl.Name, i, err)
		}
	}

	got := outputs()
	for name, want := range ref {
		d, err := maxRelDiff(got[name], want)
		if err != nil {
			return nil, fmt.Errorf("chaos: output %s: %w", name, err)
		}
		if d > rep.MaxRelDiff {
			rep.MaxRelDiff = d
		}
	}
	st := h.co.Stats()
	rep.WireBytes = st.TotalCommBytes() + st.ExtraWireBytes
	rep.FinalEpoch = h.co.ClusterEpoch()
	rep.FinalMembers = h.co.Members()
	if rep.MaxRelDiff > cfg.Tolerance {
		return rep, fmt.Errorf("chaos: %s diverged: max relative diff %g exceeds tolerance %g",
			wl.Name, rep.MaxRelDiff, cfg.Tolerance)
	}
	return rep, nil
}

// referenceRun executes the workload undisturbed on the simulated backend.
func referenceRun(cfg Config, wl Workload) (map[string]*block.Matrix, error) {
	simCfg := cfg.Cluster
	simCfg.Nodes = cfg.Workers
	cl, err := cluster.New(simCfg)
	if err != nil {
		return nil, err
	}
	step, outputs, err := wl.New(cl)
	if err != nil {
		return nil, err
	}
	for i := 0; i < wl.Steps; i++ {
		if err := step(i); err != nil {
			return nil, fmt.Errorf("step %d: %w", i, err)
		}
	}
	return outputs(), nil
}

// harness owns the chaos run's worker processes and coordinator.
type harness struct {
	cfg      Config
	workers  []*remote.Worker // spawn order; killed/drained slots stay (nil-safe via state)
	co       *remote.Coordinator
	joinAddr string
}

func newHarness(cfg Config) (*harness, error) {
	h := &harness{cfg: cfg}
	addrs := make([]string, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		w, err := h.spawnWorker()
		if err != nil {
			h.close()
			return nil, err
		}
		addrs[i] = w.Addr()
	}
	co, err := remote.NewCoordinatorConfig(cfg.Cluster, addrs, cfg.Transport)
	if err != nil {
		h.close()
		return nil, err
	}
	h.co = co
	joinAddr, err := co.ServeJoin("127.0.0.1:0")
	if err != nil {
		h.close()
		return nil, err
	}
	h.joinAddr = joinAddr
	return h, nil
}

func (h *harness) spawnWorker() (*remote.Worker, error) {
	w, err := remote.NewWorker("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h.workers = append(h.workers, w)
	return w, nil
}

// apply fires one event and waits for the membership table to settle, so
// the next workload step runs against the post-fault cluster rather than
// racing the detector. For Kill it returns how long detection-plus-eviction
// took.
func (h *harness) apply(ev Event) (desc string, recovery time.Duration, err error) {
	switch ev.Kind {
	case Kill:
		if ev.Worker < 0 || ev.Worker >= len(h.workers) {
			return "", 0, fmt.Errorf("no worker %d to kill", ev.Worker)
		}
		w := h.workers[ev.Worker]
		start := time.Now()
		w.Close()
		if err := h.waitState(w.Addr(), membership.Dead); err != nil {
			return "", 0, err
		}
		return fmt.Sprintf("kill worker %d", ev.Worker), time.Since(start), nil
	case Add:
		w, err := h.spawnWorker()
		if err != nil {
			return "", 0, err
		}
		if _, err := remote.Register(h.joinAddr, w.Addr(), 5*time.Second); err != nil {
			return "", 0, err
		}
		if err := h.waitState(w.Addr(), membership.Active); err != nil {
			return "", 0, err
		}
		return fmt.Sprintf("add worker %d", len(h.workers)-1), 0, nil
	case Drain:
		if ev.Worker < 0 || ev.Worker >= len(h.workers) {
			return "", 0, fmt.Errorf("no worker %d to drain", ev.Worker)
		}
		w := h.workers[ev.Worker]
		if err := remote.Leave(h.joinAddr, w.Addr(), 5*time.Second); err != nil {
			return "", 0, err
		}
		if err := h.waitState(w.Addr(), membership.Left); err != nil {
			return "", 0, err
		}
		if !w.Drain(10 * time.Second) {
			return "", 0, fmt.Errorf("worker %d did not drain", ev.Worker)
		}
		w.Close()
		return fmt.Sprintf("drain worker %d", ev.Worker), 0, nil
	default:
		return "", 0, fmt.Errorf("unknown event kind %d", ev.Kind)
	}
}

// waitState blocks until the newest member at addr reaches the wanted state
// (rejoined addresses create new rows; the latest row is the live one),
// waking on membership change events instead of sleep-polling. The watch
// channel is snapshotted before each table inspection, so a transition
// racing the check still wakes the waiter.
func (h *harness) waitState(addr string, want membership.State) error {
	deadline := time.After(15 * time.Second)
	for {
		changed := h.co.MembershipWatch()
		var st membership.State = membership.None
		for _, m := range h.co.Members() {
			if m.Addr == addr {
				st = m.State // members are in ID order; the last row wins
			}
		}
		if st == want {
			return nil
		}
		select {
		case <-changed:
		case <-deadline:
			return fmt.Errorf("worker %s never reached %v (stuck at %v)", addr, want, st)
		}
	}
}

func (h *harness) close() {
	if h.co != nil {
		h.co.Close()
	}
	for _, w := range h.workers {
		w.Close()
	}
}

// maxRelDiff returns the largest |got-want| / max(1, |want|) over all
// elements.
func maxRelDiff(got, want *block.Matrix) (float64, error) {
	if got == nil {
		return 0, fmt.Errorf("missing output")
	}
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return 0, fmt.Errorf("got %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	var max float64
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			g, w := got.At(i, j), want.At(i, j)
			d := math.Abs(g-w) / math.Max(1, math.Abs(w))
			if d > max {
				max = d
			}
		}
	}
	return max, nil
}
