package rt_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/lang"
	"fuseme/internal/matrix"
	"fuseme/internal/obs"
	"fuseme/internal/parallel/paralleltest"
	"fuseme/internal/rt"
	"fuseme/internal/rt/spec"
	"fuseme/internal/workloads"
)

// stageTally is what one stage's decorator saw: the samples the runtime
// handed the stage, one per task attempt, the attempts per worker, and
// whether it failed one.
type stageTally struct {
	tasks    int
	attempts int
	samples  []obs.TaskSample
	byWorker map[int]int
	failed   bool
}

// sampledRuntime runs every stage through the runtime it wraps, holding the
// first stage until a second is in flight beside it (or a timeout), failing
// one attempt of every stage, and tallying per stage what the stage was
// handed. On either runtime the attempt fails inside its body, at the
// stage's first block fetch: in-process on the sim, on its worker over TCP.
type sampledRuntime struct {
	rt.Runtime
	both chan struct{}
	once sync.Once

	mu       sync.Mutex
	inFlight int
	peak     int
	stages   map[string]*stageTally
}

func (s *sampledRuntime) RunSpecStage(st *rt.Stage) error {
	s.mu.Lock()
	if s.stages[st.Name] != nil {
		s.mu.Unlock()
		return errors.New("two stages named " + st.Name)
	}
	tally := &stageTally{tasks: st.NumTasks, byWorker: map[int]int{}}
	s.stages[st.Name] = tally
	s.inFlight++
	s.peak = max(s.peak, s.inFlight)
	if s.inFlight >= 2 {
		s.once.Do(func() { close(s.both) })
	}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.inFlight--
		s.mu.Unlock()
	}()
	select {
	case <-s.both:
	case <-time.After(10 * time.Second):
	}

	var failed atomic.Bool
	cp := *st
	fetch, done := st.Fetch, st.TaskDone
	cp.Fetch = func(ref spec.BlockRef) (matrix.Mat, error) {
		if failed.CompareAndSwap(false, true) {
			return nil, errors.New("injected fetch failure")
		}
		return fetch(ref)
	}
	cp.TaskDone = func(t obs.TaskSample) {
		s.mu.Lock()
		tally.samples = append(tally.samples, t)
		tally.attempts++
		tally.byWorker[t.Worker]++
		s.mu.Unlock()
		done(t)
	}
	err := rt.RunStage(s.Runtime, &cp)
	tally.failed = failed.Load()
	return err
}

// TestStagesReceiveTheirOwnTaskSamples: while two stages run at once, each
// is handed one sample per task attempt it ran, failed attempts included,
// and its stage_end carries the skew of exactly those samples — on the sim
// and over TCP loopback, where the attempts come from the runtime's lanes
// through rt.Stage.TaskDone alike, with no observability bundle attached to
// the coordinator.
func TestStagesReceiveTheirOwnTaskSamples(t *testing.T) {
	const users, items, k = 96, 80, 8
	inputs := map[string]*block.Matrix{
		"X": block.RandomSparse(users, items, 16, 0.05, 1, 5, 1),
		"U": block.RandomDense(k, items, 16, 0.5, 1.5, 2),
		"V": block.RandomDense(users, k, 16, 0.5, 1.5, 3),
	}
	g := workloads.GNMF(users, items, k, inputs["X"].Density())
	for name, open := range backends() {
		t.Run(name, func(t *testing.T) {
			rtm := &sampledRuntime{Runtime: open(t), both: make(chan struct{}), stages: map[string]*stageTally{}}
			j := obs.NewJournal(0, nil)
			o := &obs.Obs{Metrics: obs.NewRegistry(), QLog: j.Begin("q1", "")}
			if _, _, err := core.RunObs(core.FuseME{}, g, rtm, inputs, o); err != nil {
				t.Fatal(err)
			}
			if rtm.peak < 2 {
				t.Fatalf("at most %d stage in flight: the stages never overlapped", rtm.peak)
			}

			ends := map[string]*obs.StageSkew{}
			for _, e := range j.Events("q1") {
				if e.Type == obs.EvStageEnd {
					ends[e.Stage] = e.Skew
				}
			}
			if len(ends) != len(rtm.stages) {
				t.Fatalf("%d stage_end events for %d stages", len(ends), len(rtm.stages))
			}
			total, injected := 0, 0
			for stage, tally := range rtm.stages {
				want := tally.tasks
				if tally.failed {
					want++
					injected++
				}
				if tally.attempts != want {
					t.Errorf("%s: %d attempts ran, want %d tasks plus the failed one", stage, tally.attempts, want)
				}
				total += tally.attempts
				skew := ends[stage]
				if skew == nil {
					t.Errorf("%s: stage_end carries no skew", stage)
					continue
				}
				errs := 0
				for _, s := range tally.samples {
					if s.Err != nil {
						errs++
					}
				}
				if tally.failed && (errs != 1 || tally.byWorker[-1] != 1) {
					t.Errorf("%s: %d failed samples, %d unattributed; want the injected one", stage, errs, tally.byWorker[-1])
				}
				if want := obs.StageSkewOf(stage, tally.samples); !reflect.DeepEqual(*skew, want) {
					t.Errorf("%s: stage_end skew %+v, the stage's own samples fold to %+v", stage, *skew, want)
				}
			}
			if injected == 0 {
				t.Fatal("no attempt failed: the test injected nothing")
			}
			if got := o.Metrics.Snapshot().Counters[obs.MTasksTotal]; got != int64(total) {
				t.Errorf("fuseme_tasks_total = %d, the stages ran %d attempts", got, total)
			}
		})
	}
}

// laneRuntime runs every stage through the runtime it wraps, which has one
// lane per node, while plans compile for cfg's two: each node's queue is two
// tasks deep. With hold set, it keeps the lane of the first task whose
// results reach Collect busy there until an attempt ran away from its home,
// so the other node must steal; with fail set, it fails the stage's first
// block fetch.
type laneRuntime struct {
	rt.Runtime
	cfg        cluster.Config
	hold, fail bool
	steals     atomic.Int64 // the stages' own steal counts (rt.Stage.Report)
}

func (l *laneRuntime) Config() cluster.Config { return l.cfg }

func (l *laneRuntime) RunSpecStage(st *rt.Stage) error {
	if lanes := l.Runtime.Config().TotalSlots(); st.NumTasks <= lanes {
		return fmt.Errorf("stage %s: %d tasks on %d lanes, nothing queues", st.Name, st.NumTasks, lanes)
	}
	var (
		held, failed atomic.Bool
		stolen       = make(chan struct{})
		once         sync.Once
	)
	nodes := l.Runtime.Config().Nodes
	cp := *st
	cp.TaskDone = func(s obs.TaskSample) {
		if s.Err == nil && s.Worker != s.ID%nodes {
			once.Do(func() { close(stolen) })
		}
		st.TaskDone(s)
	}
	cp.Report = func(s cluster.Stats) {
		l.steals.Add(s.StealTasks)
		st.Report(s)
	}
	if l.hold {
		cp.Collect = func(taskID int, blocks []spec.OutBlock) error {
			if held.CompareAndSwap(false, true) {
				select {
				case <-stolen:
				case <-time.After(5 * time.Second):
					return errors.New("no attempt ran away from its home while a lane was held")
				}
			}
			return st.Collect(taskID, blocks)
		}
	}
	if l.fail {
		cp.Fetch = func(ref spec.BlockRef) (matrix.Mat, error) {
			if failed.CompareAndSwap(false, true) {
				return nil, errors.New("injected fetch failure")
			}
			return st.Fetch(ref)
		}
	}
	return rt.RunStage(l.Runtime, &cp)
}

// TestAttemptsNameTheLaneThatRanThem: each runtime reports a task attempt
// under the node whose lane ran it, as the journal's task events show. One
// lane per node and two tasks queued at each; holding a lane busy in Collect
// makes the other node steal, and the stolen attempt is reported under the
// thief, not the task's home. A failed attempt is reported under no worker
// (-1), on the sim as over TCP.
func TestAttemptsNameTheLaneThatRanThem(t *testing.T) {
	cfg := conformanceConfig()
	cfg.TasksPerNode = 1
	wide := cfg
	wide.TasksPerNode = 2
	// The sim runs at most GOMAXPROCS tasks at once: a held lane must not
	// keep the other node's from running.
	paralleltest.ForceThreads(t, 1, cfg.TotalSlots())
	g, err := lang.Parse("O = exp(X) / (Y + 1)", map[string]lang.InputDecl{
		"X": {Rows: 64, Cols: 64, Sparsity: 1}, "Y": {Rows: 64, Cols: 64, Sparsity: 1}})
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]*block.Matrix{
		"X": block.RandomDense(64, 64, 16, 0, 1, 1),
		"Y": block.RandomDense(64, 64, 16, 0, 1, 2),
	}
	// attempts runs the query on l and returns its journaled task attempts.
	attempts := func(t *testing.T, l *laneRuntime) []obs.TaskSample {
		t.Helper()
		j := obs.NewJournal(0, nil)
		o := &obs.Obs{Trace: true, QLog: j.Begin("q", "")}
		if _, _, err := core.RunObs(core.FuseME{}, g, l, inputs, o); err != nil {
			t.Fatal(err)
		}
		var out []obs.TaskSample
		for _, e := range j.Events("q") {
			if e.Type == obs.EvTask && e.Task != nil {
				out = append(out, *e.Task)
			}
		}
		if len(out) == 0 {
			t.Fatal("no task attempt journaled")
		}
		return out
	}
	for name, open := range backendsWith(cfg) {
		t.Run(name, func(t *testing.T) {
			rtm := open(t)

			stealing := &laneRuntime{Runtime: rtm, cfg: wide, hold: true}
			thieves := 0
			for _, s := range attempts(t, stealing) {
				if s.Err != nil || s.Worker < 0 || s.Worker >= cfg.Nodes {
					t.Errorf("task %d reported under worker %d (err %v)", s.ID, s.Worker, s.Err)
				}
				if s.Worker != s.ID%cfg.Nodes {
					thieves++
				}
			}
			if stealing.steals.Load() == 0 || thieves == 0 {
				t.Errorf("%d steals counted, %d attempts reported away from their home; want both", stealing.steals.Load(), thieves)
			}

			var failed []obs.TaskSample
			for _, s := range attempts(t, &laneRuntime{Runtime: rtm, cfg: wide, fail: true}) {
				if s.Err != nil {
					failed = append(failed, s)
				} else if s.Worker < 0 {
					t.Errorf("task %d succeeded under no worker", s.ID)
				}
			}
			if len(failed) != 1 || failed[0].Worker != -1 {
				t.Errorf("failed attempts %+v, want one, under worker -1", failed)
			}
		})
	}
}
