package fuseme

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fuseme/internal/obs"
)

// journalSession builds a small sim session with the given options and the
// standard NMF test inputs bound.
func journalSession(t *testing.T, opts ...Option) *Session {
	t.Helper()
	cfg := LocalClusterConfig()
	cfg.BlockSize = 16
	sess, err := NewSession(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	bindTestInputs(sess)
	return sess
}

// TestSessionJournalLifecycle checks the events a library session (no serve
// daemon in front) emits per query: auto-numbered query ids, a planned event
// carrying the chosen plan and its predicted cost, balanced stage pairs with
// flight records, and a terminal done with the task count.
func TestSessionJournalLifecycle(t *testing.T) {
	j := NewJournal(0, nil)
	sess := journalSession(t, WithJournal(j), WithPlanCache(NewPlanCache(0)))
	for i := 0; i < 2; i++ {
		if _, err := sess.Query(obsTestScript); err != nil {
			t.Fatal(err)
		}
	}

	for _, query := range []string{"q1", "q2"} {
		events := j.Events(query)
		if len(events) == 0 {
			t.Fatalf("no events for %s", query)
		}
		if events[0].Type != obs.EvPlanned {
			t.Fatalf("%s: first event %q, want planned", query, events[0].Type)
		}
		p := events[0]
		if p.Plan == "" || p.Engine == "" || p.Operators == 0 || p.PredSeconds <= 0 {
			t.Fatalf("%s: planned event incomplete: %+v", query, p)
		}
		last := events[len(events)-1]
		if last.Type != obs.EvDone || last.Seconds <= 0 || last.Tasks == 0 {
			t.Fatalf("%s: terminal event = %+v, want done with wall time and tasks", query, last)
		}
		starts, ends := 0, 0
		for _, e := range events {
			switch e.Type {
			case obs.EvStageStart:
				starts++
			case obs.EvStageEnd:
				ends++
				if e.Flight == nil || e.Flight.Stage != e.Stage {
					t.Fatalf("%s: stage_end without matching flight: %+v", query, e)
				}
			}
		}
		if starts == 0 || starts != ends {
			t.Fatalf("%s: %d stage starts / %d ends", query, starts, ends)
		}
	}
	// The second query hit the plan cache and says so.
	if p := j.Events("q2")[0]; !p.PlanCacheHit {
		t.Errorf("q2 planned event not marked as a plan-cache hit: %+v", p)
	}

	// A failing query still reports its lifecycle.
	sess.Unbind("V")
	if _, err := sess.Query(obsTestScript); err == nil {
		t.Fatal("query with unbound input should fail")
	}
	events := j.Events("q3")
	if len(events) == 0 || events[len(events)-1].Type != obs.EvFailed {
		t.Fatalf("q3 events = %+v, want a terminal failed event", events)
	}
	if events[len(events)-1].Error == "" {
		t.Fatal("failed event carries no error")
	}
}

// TestSessionJournalFileSink round-trips the JSONL sink through Close and the
// FUSEME_JOURNAL environment fallback.
func TestSessionJournalFileSink(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	sink, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sess := journalSession(t, WithJournal(NewJournal(0, sink)))
	if sess.Journal() == nil {
		t.Fatal("Journal() = nil with WithJournal")
	}
	if _, err := sess.Query(obsTestScript); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("Session.Close closed the caller's journal sink: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 || events[0].Type != obs.EvPlanned || events[len(events)-1].Type != obs.EvDone {
		t.Fatalf("file sink events = %+v", events)
	}

	envPath := filepath.Join(dir, "env.jsonl")
	t.Setenv(EnvJournal, envPath)
	envSess := journalSession(t)
	if envSess.Journal() == nil {
		t.Fatalf("%s fallback did not open a journal", EnvJournal)
	}
	if _, err := envSess.Query(obsTestScript); err != nil {
		t.Fatal(err)
	}
	if err := envSess.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(envPath); err != nil || fi.Size() == 0 {
		t.Fatalf("env journal file: %v (size %v)", err, fi)
	}
}

// TestSessionCloseEndsItsOwnJournal: the FUSEME_JOURNAL journal is the
// session's own, so it goes with Close like the metrics endpoint: a query
// after Close still runs, journals nowhere, and the next Close succeeds. The
// file keeps the first query's events.
func TestSessionCloseEndsItsOwnJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "env.jsonl")
	t.Setenv(EnvJournal, path)
	sess := journalSession(t)
	for i := 0; i < 2; i++ {
		if _, err := sess.Query(obsTestScript); err != nil {
			t.Fatalf("query %d: %v", i+1, err)
		}
		if err := sess.Close(); err != nil {
			t.Fatalf("Close %d: %v", i+1, err)
		}
	}
	if sess.Journal() != nil {
		t.Error("the FUSEME_JOURNAL journal outlived Close")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Query != "q1" {
			t.Fatalf("the file holds an event of %s after Close: %+v", e.Query, e)
		}
	}
	if len(events) < 3 || events[len(events)-1].Type != obs.EvDone {
		t.Fatalf("file events = %+v, want q1's lifecycle", events)
	}
}

// TestSetQueryLogConsumedOnce: a pending query log (the serve handoff) names
// exactly one Query; the next query falls back to auto-numbering.
func TestSetQueryLogConsumedOnce(t *testing.T) {
	j := NewJournal(0, nil)
	sess := journalSession(t, WithJournal(j))
	sess.SetQueryLog(j.Begin("custom-id", "acme"))
	if _, err := sess.Query(obsTestScript); err != nil {
		t.Fatal(err)
	}
	events := j.Events("custom-id")
	if len(events) == 0 || events[0].Tenant != "acme" {
		t.Fatalf("custom-id events = %+v", events)
	}
	if _, err := sess.Query(obsTestScript); err != nil {
		t.Fatal(err)
	}
	if got := j.Events("q1"); len(got) == 0 {
		t.Fatal("second query did not auto-number q1")
	}
}

// TestSessionsShareOneSlowdownHistory: sessions that publish to one registry
// — the serve daemon's pool — fold their stages into one per-worker slowdown
// history, so fuseme_worker_slowdown{worker} scores every stage of every
// session, not only those of the session that ran last. Two sessions take
// turns, then run at once; each time the gauges must be the scores of a
// fresh registry the shared journal is replayed into (obs.Replay), which
// folds the two sessions' stages in the order the shared registry did.
func TestSessionsShareOneSlowdownHistory(t *testing.T) {
	reg, j := obs.NewRegistry(), NewJournal(0, nil)
	a := journalSession(t, WithRegistry(reg), WithJournal(j))
	b := journalSession(t, WithRegistry(reg), WithJournal(j))
	for i, sess := range []*Session{a, b, a, b} {
		sess.SetQueryLog(j.Begin(fmt.Sprintf("turn%d", i), ""))
		if _, err := sess.Query(obsTestScript); err != nil {
			t.Fatal(err)
		}
	}
	checkSlowdownGauges := func(when string) {
		t.Helper()
		ref := obs.NewRegistry()
		obs.Replay(j.Retained(), nil, ref)
		got, scores := reg.Snapshot().Gauges, 0
		for name, want := range ref.Snapshot().Gauges {
			if strings.HasPrefix(name, obs.MWorkerSlowdown) {
				scores++
				if got[name] != want {
					t.Errorf("%s: %s = %g, want %g", when, name, got[name], want)
				}
			}
		}
		if scores == 0 {
			t.Fatalf("%s: no worker has a slowdown score", when)
		}
	}
	checkSlowdownGauges("taking turns")

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i, sess := range []*Session{a, b} {
		sess.SetQueryLog(j.Begin(fmt.Sprintf("together%d", i), ""))
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := sess.Query(obsTestScript)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	checkSlowdownGauges("at once")
}

// TestReplayEqualsLiveSession: a traced session's journal file, read back
// and replayed into a fresh calibration and a fresh registry (obs.Replay),
// gives the live session's Report text, the stage and task series and the
// straggler gauges, because the live consumers fold the same events. Three
// GNMF iterations, whose two updates run at once, on the simulated cluster
// and over loopback TCP. The task latency and queue wait histograms agree,
// quantiles included: both registries time a task on the wall clock, the one
// a journaled time carries.
func TestReplayEqualsLiveSession(t *testing.T) {
	for _, runtime := range []string{"sim", "tcp"} {
		t.Run(runtime, func(t *testing.T) {
			var sink bytes.Buffer
			cfg := LocalClusterConfig()
			cfg.BlockSize = 16
			if cfg.Runtime = runtime; runtime == "tcp" {
				cfg.Workers = startWorkers(t, 2)
			}
			sess, err := NewSession(cfg, WithTracing(), WithMetricsAddr(""),
				WithJournal(NewJournal(0, &sink)))
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			bindGNMFInputs(sess)
			for range 3 {
				out, err := sess.Query(gnmfScript)
				if err != nil {
					t.Fatal(err)
				}
				sess.Bind("U", out["U2"])
				sess.Bind("V", out["V2"])
			}
			if err := sess.Journal().Flush(); err != nil {
				t.Fatal(err)
			}
			events, err := obs.ReadEvents(&sink)
			if err != nil {
				t.Fatal(err)
			}
			calib, reg := obs.NewCalibration(), obs.NewRegistry()
			obs.Replay(events, calib, reg)

			rep := calib.Report(sess.cc)
			if snap := reg.Histogram(obs.MTaskSeconds).Snapshot(); snap.Count > 0 {
				rep.TaskLatency = &snap
			}
			if got, want := rep.String(), sess.Report(); got != want {
				t.Errorf("replayed report:\n%s\nlive:\n%s", got, want)
			}
			live, replayed := sess.obs.Metrics.Snapshot(), reg.Snapshot()
			for _, name := range []string{obs.MStagesTotal, obs.MTasksTotal, obs.MFlopsTotal} {
				if replayed.Counters[name] == 0 {
					t.Errorf("replay folded no %s", name)
				}
			}
			for name, v := range replayed.Counters {
				if live.Counters[name] != v {
					t.Errorf("%s = %d replayed, %d live", name, v, live.Counters[name])
				}
			}
			if replayed.Gauges[obs.MStageSkew] == 0 {
				t.Fatal("the replay published no stage skew: the run has no straggler gauges to compare")
			}
			for w := range cfg.Nodes {
				if _, ok := replayed.Gauges[obs.WorkerSlowdownGauge(w)]; !ok {
					t.Errorf("replay published no slowdown for worker %d", w)
				}
			}
			for name, v := range replayed.Gauges {
				if live.Gauges[name] != v {
					t.Errorf("%s = %g replayed, %g live", name, v, live.Gauges[name])
				}
			}
			for _, name := range []string{obs.MTaskSeconds, obs.MQueueSeconds} {
				// The sum too is exact: a histogram sums whole nanoseconds,
				// so the order the journal holds the task events of
				// overlapping stages in does not move its bits.
				if got, want := replayed.Histograms[name], live.Histograms[name]; got != want {
					t.Errorf("%s = %+v replayed, %+v live", name, got, want)
				}
			}
		})
	}
}

// TestSessionSkewDetectorWithMetrics: enabling the metrics registry arms the
// skew detection it keeps — stage_end events carry a StageSkew and the
// registry gains the imbalance gauge and per-worker slowdown series.
func TestSessionSkewDetectorWithMetrics(t *testing.T) {
	j := NewJournal(0, nil)
	sess := journalSession(t, WithJournal(j), WithMetricsAddr(""))
	if _, err := sess.Query(obsTestScript); err != nil {
		t.Fatal(err)
	}
	var sawSkew bool
	for _, e := range j.Events("q1") {
		if e.Type == obs.EvStageEnd && e.Skew != nil {
			sawSkew = true
			if e.Skew.Tasks == 0 || e.Skew.Imbalance < 1 {
				t.Fatalf("stage skew = %+v", e.Skew)
			}
			if len(e.Skew.Workers) == 0 {
				t.Fatalf("stage skew has no worker placement: %+v", e.Skew)
			}
		}
	}
	if !sawSkew {
		t.Fatal("no stage_end carried a skew summary")
	}
	snap, err := sess.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Gauges[obs.MStageSkew] < 1 {
		t.Errorf("stage skew gauge = %g, want >= 1", snap.Gauges[obs.MStageSkew])
	}
	slowdowns := 0
	for name, v := range snap.Gauges {
		if len(name) > len(obs.MWorkerSlowdown) && name[:len(obs.MWorkerSlowdown)] == obs.MWorkerSlowdown {
			slowdowns++
			if v <= 0 {
				t.Errorf("slowdown series %s = %g, want > 0", name, v)
			}
		}
	}
	if slowdowns == 0 {
		t.Error("no per-worker slowdown series in the registry")
	}
}

// TestJournalOverheadGate bounds the cost of full per-query observability
// (journal + metrics, the registry keeping the skew history) against an
// uninstrumented session on the same workload. Wall-clock comparison is loose
// on purpose — BenchmarkJournalOverhead measures the two shares in
// interleaved rounds; this gate only rules out gross regressions (an
// accidental per-task allocation, a lock on the hot path).
func TestJournalOverheadGate(t *testing.T) {
	const iters = 20
	run := func(opts ...Option) time.Duration {
		sess := journalSession(t, opts...)
		// One warmup query outside the timed window (plan cache, allocator).
		if _, err := sess.Query(obsTestScript); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := sess.Query(obsTestScript); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	off := run()
	on := run(WithJournal(NewJournal(0, nil)), WithMetricsAddr(""))
	const slack = 150 * time.Millisecond
	if on > off*5/4+slack {
		t.Errorf("observed wall with journal+metrics %v vs %v off: more than 25%%+%v slower", on, off, slack)
	}
}
