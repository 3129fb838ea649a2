package rt_test

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/matrix"
	"fuseme/internal/obs"
	"fuseme/internal/rt"
	"fuseme/internal/rt/spec"
	"fuseme/internal/workloads"
)

// stageTally is what one stage's decorator saw: the task attempts that ran a
// body (sim), the samples the runtime handed the stage (TCP), the attempts
// per worker, and whether it failed one.
type stageTally struct {
	tasks    int
	attempts int
	samples  []obs.TaskSample
	byWorker map[int]int
	failed   bool
}

// sampledRuntime runs every stage through the runtime it wraps, holding the
// first stage until a second is in flight beside it (or a timeout), failing
// one attempt of every stage, and tallying per stage what ran and what the
// stage was handed. A sim attempt fails as its body returns; a TCP attempt
// fails inside its body, on its worker, at the stage's first block fetch.
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
	if sr, ok := s.Runtime.(rt.SpecRunner); ok {
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
		err := sr.RunSpecStage(&cp)
		tally.failed = failed.Load()
		return err
	}
	fn, nodes := st.Fn, s.Config().Nodes
	cp.Fn = func(t *cluster.Task) error {
		s.mu.Lock()
		tally.attempts++
		tally.byWorker[t.ID%nodes]++
		s.mu.Unlock()
		if err := fn(t); err != nil {
			return err
		}
		if failed.CompareAndSwap(false, true) {
			return errors.New("injected failure after the body")
		}
		return nil
	}
	err := rt.RunStage(s.Runtime, &cp)
	tally.failed = failed.Load()
	return err
}

// TestStagesReceiveTheirOwnTaskSamples: while two stages run at once, each
// is handed one sample per task attempt it ran, failed attempts included,
// and its stage_end carries the skew of exactly those samples — on the sim,
// where the attempts come from the wrapped task closure, and over TCP
// loopback, where they come from the coordinator's lanes through
// rt.Stage.TaskDone, with no observability bundle attached to the
// coordinator.
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
				if name == "sim" {
					// Every sim attempt names its home node and enters the skew.
					got := map[int]int{}
					for _, w := range skew.Workers {
						got[w.Worker] = w.Tasks
					}
					if skew.Tasks != tally.attempts || !reflect.DeepEqual(got, tally.byWorker) {
						t.Errorf("%s: skew over %d tasks on %v, the stage ran %d attempts on %v",
							stage, skew.Tasks, got, tally.attempts, tally.byWorker)
					}
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
