package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fuseme/internal/cluster"
)

// fullRecord has every FlightRecord field, and every field of its Meas but
// PrefetchSeconds, set to a distinct value. Nothing prefetches, so that field
// is zero in every record and its omitempty key never appears.
func fullRecord() FlightRecord {
	return FlightRecord{
		Stage: "partial:mul#12", Op: "CFO mul#12", Kind: "CFO", P: 2, Q: 3, R: 4, Tasks: 24,
		PredNetBytes: 1001, PredComFlops: 1002, PredMemBytes: 1003,
		Meas: cluster.Stats{ConsolidationBytes: 2001, AggregationBytes: 2002, Flops: 2004,
			Stages: 1, Tasks: 24, SimSeconds: 0.125, WallSeconds: 0.5, PeakTaskMemBytes: 2005,
			MaxTaskFlops: 2006, ExtraWireBytes: 2003,
			CacheHits: 31, CacheMisses: 32, CacheEvictions: 34, CacheSavedBytes: 33,
			StealTasks: 43, FetchSeconds: 0.25, TaskSeconds: 1.5,
			FetchCalls: 44, FetchServeSeconds: 0.375, CollectSeconds: 0.0625},
	}
}

// The wire format of the journal's stage_end.flight and GET
// /v1/queries/{id}. The measured half is the "meas" object, the stage's
// cluster.Stats under the JSON tags a task event's metrics use. A renamed
// tag, a reordered or dropped field fails here.
const (
	goldenFlight = `{"stage":"partial:mul#12","op":"CFO mul#12","kind":"CFO","p":2,"q":3,"r":4,"tasks":24,"pred_net_bytes":1001,"pred_com_flops":1002,"pred_mem_bytes":1003,"meas":{"consolidation_bytes":2001,"aggregation_bytes":2002,"flops":2004,"stages":1,"tasks":24,"sim_seconds":0.125,"wall_seconds":0.5,"peak_task_mem_bytes":2005,"max_task_flops":2006,"extra_wire_bytes":2003,"cache_hits":31,"cache_misses":32,"cache_evictions":34,"cache_saved_bytes":33,"steal_tasks":43,"fetch_seconds":0.25,"task_seconds":1.5,"fetch_calls":44,"fetch_serve_seconds":0.375,"collect_seconds":0.0625}}`
	goldenEvent  = `{"query":"q7","seq":5,"type":"stage_end","t_unix_nano":1700000000000000000,"tenant":"acme","stage":"partial:mul#12","op":"CFO mul#12","tasks":24,"flight":` + goldenFlight + `,"skew":{"stage":"partial:mul#12","tasks":24,"max_seconds":0.5,"median_seconds":0.25,"imbalance":2,"workers":[{"worker":0,"tasks":12,"seconds":3},{"worker":1,"tasks":12,"seconds":4.5}]},"seconds":0.125,"error":"boom"}`
)

func TestGoldenStageBytes(t *testing.T) {
	rec := fullRecord()
	for _, c := range []struct {
		v      reflect.Value
		fields int
	}{{reflect.ValueOf(rec), 11}, {reflect.ValueOf(rec.Meas), 21}} {
		if n := c.v.NumField(); n != c.fields {
			t.Fatalf("%s has %d fields, the golden line covers %d: extend fullRecord and re-check the format", c.v.Type(), n, c.fields)
		}
		for i := 0; i < c.v.NumField(); i++ {
			if c.v.Field(i).IsZero() && c.v.Type().Field(i).Name != "PrefetchSeconds" {
				t.Fatalf("fullRecord leaves %s.%s zero", c.v.Type(), c.v.Type().Field(i).Name)
			}
		}
	}
	got, err := json.Marshal(rec)
	if err != nil || string(got) != goldenFlight {
		t.Errorf("flight line moved (err %v):\n got %s\nwant %s", err, got, goldenFlight)
	}
	ev := Event{Query: "q7", Seq: 5, Type: EvStageEnd, UnixNano: 1700000000000000000, Tenant: "acme",
		Stage: rec.Stage, Op: rec.Op, Tasks: rec.Tasks, Seconds: rec.Meas.SimSeconds, Flight: &rec,
		Skew: &StageSkew{Stage: rec.Stage, Tasks: 24, MaxSeconds: 0.5, MedianSeconds: 0.25, Imbalance: 2,
			Workers: []WorkerLoad{{Worker: 0, Tasks: 12, Seconds: 3}, {Worker: 1, Tasks: 12, Seconds: 4.5}}},
		Error: "boom"}
	got, err = json.Marshal(ev)
	if err != nil || string(got) != goldenEvent {
		t.Errorf("stage_end line moved (err %v):\n got %s\nwant %s", err, got, goldenEvent)
	}
}

// TestStageDoneFanOut: one StageDone call with every component on yields a
// journal stage_end.flight, a calibration row and counter deltas that all
// carry the record's numbers, and a stage_end.skew folded from the stage's
// task samples; a nil Obs and an Obs with every component nil absorb the
// same call.
func TestStageDoneFanOut(t *testing.T) {
	rec := fullRecord()
	rec.PredNetBytes, rec.PredComFlops = 1<<30, 1 // net-bound under the cluster below
	cc := cluster.Config{Nodes: 2, NetBandwidth: 1e9, CompBandwidth: 50e9}

	var sink bytes.Buffer
	j := NewJournal(0, &sink)
	o := &Obs{
		Trace: true, Metrics: NewRegistry(), Calib: NewCalibration(), QLog: j.Begin("q1", "acme"),
	}
	var samples []TaskSample
	for id := 0; id < 3; id++ {
		now := time.Now()
		samples = append(samples, TaskSample{ID: id, Worker: id % 2, StageStart: now, Start: now, End: time.Now()})
		o.TaskDone(rec.Stage, samples[id])
	}
	o.StageDone(rec, StageSkewOf(rec.Stage, samples), errors.New("boom"))

	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(&sink)
	if err != nil || len(events) != 4 {
		t.Fatalf("journal sink = %+v, %v; want three task events and the stage_end", events, err)
	}
	for _, ev := range events[:3] {
		if ev.Type != EvTask || ev.Stage != rec.Stage {
			t.Errorf("task event %+v does not name its stage %q", ev, rec.Stage)
		}
	}
	end := events[3]
	if end.Type != EvStageEnd || end.Flight == nil || *end.Flight != rec {
		t.Errorf("stage_end.flight = %+v, want the record", end.Flight)
	}
	if end.Stage != rec.Stage || end.Op != rec.Op || end.Tasks != rec.Tasks ||
		end.Seconds != rec.Meas.SimSeconds || end.Error != "boom" || end.Query != "q1" || end.Tenant != "acme" {
		t.Errorf("stage_end header = %+v", end)
	}
	if end.Skew == nil || end.Skew.Tasks != 3 || len(end.Skew.Workers) != 2 {
		t.Errorf("stage_end.skew = %+v, want the three task samples over two workers", end.Skew)
	}

	rows := o.Calib.Report(cc).Rows
	if len(rows) != 1 {
		t.Fatalf("calibration rows = %+v, want one", rows)
	}
	row := rows[0]
	if row.Op != rec.Op || row.Kind != rec.Kind || row.P != rec.P || row.Q != rec.Q || row.R != rec.R ||
		row.Stages != 1 || row.Executions != 1 || row.Tasks != rec.Tasks ||
		row.PredNetBytes != rec.PredNetBytes || row.PredComFlops != rec.PredComFlops || row.PredMemBytes != rec.PredMemBytes ||
		row.Meas != rec.Meas {
		t.Errorf("calibration row = %+v, does not carry the record %+v", row, rec)
	}

	snap, m := o.Metrics.Snapshot(), rec.Meas
	for name, want := range map[string]int64{
		MStagesTotal: 1, MTasksTotal: 3,
		MConsolidationBytes: m.ConsolidationBytes, MAggregationBytes: m.AggregationBytes,
		MExtraBytes: m.ExtraWireBytes, MFlopsTotal: m.Flops,
		MCacheHits: m.CacheHits, MCacheMisses: m.CacheMisses, MCacheEvictions: m.CacheEvictions,
		MStealTasks: m.StealTasks,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Gauges[MCacheSavedBytes]; got != float64(m.CacheSavedBytes) {
		t.Errorf("%s = %g, want %d", MCacheSavedBytes, got, m.CacheSavedBytes)
	}
	if snap.Histograms[MTaskSeconds].Count != 3 || snap.Histograms[MQueueSeconds].Count != 3 {
		t.Errorf("task histograms = %+v", snap.Histograms)
	}
	spans := 0
	for _, ev := range renderSpans(t, events) {
		if ev.Cat == "task" && strings.HasPrefix(ev.Name, "task ") {
			spans++
		}
	}
	if spans != 3 {
		t.Errorf("task spans = %d, want 3", spans)
	}

	var none *Obs
	none.StageDone(rec, StageSkewOf(rec.Stage, samples), nil)
	none.TaskDone(rec.Stage, TaskSample{})
	(&Obs{}).StageDone(rec, StageSkewOf(rec.Stage, samples), errors.New("boom"))
	(&Obs{}).TaskDone(rec.Stage, TaskSample{})
}

// measure folds rec into c as its stage_end event.
func (c *Calibration) measure(rec FlightRecord) {
	c.Fold(&Event{Type: EvStageEnd, Stage: rec.Stage, Flight: &rec})
}

// observeStage folds a stage_end event carrying sk into r.
func (r *Registry) observeStage(sk StageSkew) {
	r.Fold(&Event{Type: EvStageEnd, Stage: sk.Stage, Flight: &FlightRecord{Stage: sk.Stage}, Skew: &sk})
}

// TestConcurrentStageFoldsLoseNothing: stages folded at once — concurrent
// operators, pooled sessions on one registry — add every stage's cache
// savings to fuseme_cache_saved_bytes_total, as they add every hit to
// fuseme_cache_hits_total.
func TestConcurrentStageFoldsLoseNothing(t *testing.T) {
	const goroutines, stages = 8, 2000
	o := &Obs{Metrics: NewRegistry(), Calib: NewCalibration()}
	rec := FlightRecord{Stage: "s", Op: "CFO mul#1", Tasks: 1, Meas: cluster.Stats{CacheHits: 1, CacheSavedBytes: 1}}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < stages; i++ {
				o.StageDone(rec, StageSkew{}, nil)
			}
		}()
	}
	wg.Wait()
	snap := o.Metrics.Snapshot()
	if got := snap.Counters[MCacheHits]; got != goroutines*stages {
		t.Errorf("%s = %d, want %d", MCacheHits, got, goroutines*stages)
	}
	if got := snap.Gauges[MCacheSavedBytes]; got != goroutines*stages {
		t.Errorf("%s = %g, want %d", MCacheSavedBytes, got, goroutines*stages)
	}
}

// TestReplayFoldsInEmissionOrder: a journal keeps an operator's stage_end
// behind an earlier operator's (QueryLog.Parts) although the live registry
// folded it first. Replay folds by time, so the slowdown history it rebuilds
// is the live one, and folding in journal order would not be.
func TestReplayFoldsInEmissionOrder(t *testing.T) {
	var sink bytes.Buffer
	j := NewJournal(0, &sink)
	parts := j.Begin("q1", "").Parts(2)
	live := &Obs{Trace: true, Metrics: NewRegistry(), Calib: NewCalibration()}
	stage := func(part int, name string, w0, w1 float64) {
		o := *live
		o.QLog = parts[part]
		samples := samplesOf([]int{0, 1}, w0, w1)
		for _, s := range samples {
			o.TaskDone(name, s)
		}
		o.StageDone(FlightRecord{Stage: name, Op: "CFO mul#" + name, Tasks: 2, Meas: cluster.Stats{Flops: 3}},
			StageSkewOf(name, samples), nil)
	}
	stage(1, "2", 1, 4) // the later operator ends first: held
	stage(0, "1", 2, 1)
	parts[0].Close()
	parts[1].Close()
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(&sink)
	if err != nil {
		t.Fatal(err)
	}
	if events[len(events)-1].Stage != "2" {
		t.Fatalf("the journal does not keep the held stage last: %+v", events)
	}

	replayed, c := NewRegistry(), NewCalibration()
	Replay(events, c, replayed)
	if got, want := replayed.Snapshot(), live.Metrics.Snapshot(); !reflect.DeepEqual(got.Gauges, want.Gauges) ||
		!reflect.DeepEqual(got.Counters, want.Counters) {
		t.Errorf("replayed registry = %+v\nlive = %+v", got, want)
	}
	cc := cluster.Config{Nodes: 2, NetBandwidth: 1e9, CompBandwidth: 1e10}
	if got, want := c.Report(cc).String(), live.Calib.Report(cc).String(); got != want {
		t.Errorf("replayed calibration:\n%s\nlive:\n%s", got, want)
	}
	inJournalOrder := NewRegistry()
	for i := range events {
		inJournalOrder.Fold(&events[i])
	}
	if reflect.DeepEqual(inJournalOrder.slowdownsLocked(), live.Metrics.slowdownsLocked()) {
		t.Error("folding in journal order gives the live slowdowns too; the case is not the one meant")
	}
}

// TestFoldsAllocateNothing: with the calibration and the registry on and the
// journal off, a stage without task samples and a task attempt are folded
// from events on the stack: no allocation per stage or per task.
func TestFoldsAllocateNothing(t *testing.T) {
	o := &Obs{Metrics: NewRegistry(), Calib: NewCalibration()}
	rec := fullRecord()
	now := time.Now()
	sample := TaskSample{ID: 1, Worker: 1, StageStart: now, Start: now, End: now.Add(time.Millisecond)}
	o.StageDone(rec, StageSkew{}, nil) // creates the row and the series
	o.TaskDone(rec.Stage, sample)
	if got := testing.AllocsPerRun(100, func() { o.StageDone(rec, StageSkew{}, nil) }); got != 0 {
		t.Errorf("StageDone allocates %.0f times per stage", got)
	}
	if got := testing.AllocsPerRun(100, func() { o.TaskDone(rec.Stage, sample) }); got != 0 {
		t.Errorf("TaskDone allocates %.0f times per task", got)
	}
}
