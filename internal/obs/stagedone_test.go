package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"fuseme/internal/cluster"
)

// fullRecord has every FlightRecord field set to a distinct value.
func fullRecord() FlightRecord {
	return FlightRecord{
		Stage: "partial:mul#12", Op: "CFO mul#12", Kind: "CFO", P: 2, Q: 3, R: 4, Tasks: 24,
		PredNetBytes: 1001, PredComFlops: 1002, PredMemBytes: 1003,
		MeasWallSeconds: 0.125, MeasConsolidationBytes: 2001, MeasAggregationBytes: 2002,
		MeasExtraWireBytes: 2003, MeasFlops: 2004, MeasPeakTaskMemBytes: 2005,
		CacheHits: 31, CacheMisses: 32, CacheSavedBytes: 33,
		StealTasks: 43, MeasFetchSeconds: 0.25, MeasTaskSeconds: 1.5,
		FetchCalls: 44, FetchServeSeconds: 0.375, CollectSeconds: 0.0625,
	}
}

// The wire format of the journal's stage_end.flight and GET
// /v1/queries/{id}: these strings were marshalled by the commit before
// FlightRecord became the only per-stage type (8b2b7b6), less the four
// prefetch keys protocol v8 removed (omitempty and never set, so no record
// ever carried them), plus the coordinator's three fetch/collect keys
// appended since. A renamed tag, a reordered or dropped field fails here.
const (
	goldenFlight = `{"stage":"partial:mul#12","op":"CFO mul#12","kind":"CFO","p":2,"q":3,"r":4,"tasks":24,"pred_net_bytes":1001,"pred_com_flops":1002,"pred_mem_bytes":1003,"meas_wall_seconds":0.125,"meas_consolidation_bytes":2001,"meas_aggregation_bytes":2002,"meas_extra_wire_bytes":2003,"meas_flops":2004,"meas_peak_task_mem_bytes":2005,"cache_hits":31,"cache_misses":32,"cache_saved_bytes":33,"steal_tasks":43,"meas_fetch_seconds":0.25,"meas_task_seconds":1.5,"fetch_calls":44,"fetch_serve_seconds":0.375,"collect_seconds":0.0625}`
	goldenEvent  = `{"query":"q7","seq":5,"type":"stage_end","t_unix_nano":1700000000000000000,"tenant":"acme","stage":"partial:mul#12","op":"CFO mul#12","tasks":24,"flight":` + goldenFlight + `,"skew":{"stage":"partial:mul#12","tasks":24,"max_seconds":0.5,"median_seconds":0.25,"imbalance":2,"workers":[{"worker":0,"tasks":12,"seconds":3},{"worker":1,"tasks":12,"seconds":4.5}]},"seconds":0.125,"error":"boom"}`
)

func TestGoldenStageBytes(t *testing.T) {
	rec := fullRecord()
	if v := reflect.ValueOf(rec); v.NumField() != 25 {
		t.Fatalf("FlightRecord has %d fields, the golden line covers 25: extend fullRecord and re-check the format", v.NumField())
	} else {
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).IsZero() {
				t.Fatalf("fullRecord leaves %s zero", v.Type().Field(i).Name)
			}
		}
	}
	got, err := json.Marshal(rec)
	if err != nil || string(got) != goldenFlight {
		t.Errorf("flight line moved (err %v):\n got %s\nwant %s", err, got, goldenFlight)
	}
	ev := Event{Query: "q7", Seq: 5, Type: EvStageEnd, UnixNano: 1700000000000000000, Tenant: "acme",
		Stage: rec.Stage, Op: rec.Op, Tasks: rec.Tasks, Seconds: rec.MeasWallSeconds, Flight: &rec,
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
		Trace: true, Metrics: NewRegistry(), Calib: NewCalibration(),
		Skew: NewSkewDetector(), QLog: j.Begin("q1", "acme"),
	}
	var samples []TaskSample
	for id := 0; id < 3; id++ {
		now := time.Now()
		samples = append(samples, TaskSample{ID: id, Worker: id % 2, StageStart: now, Start: now, End: time.Now()})
		o.TaskDone(samples[id])
	}
	o.StageDone(rec, StageSkewOf(rec.Stage, samples), errors.New("boom"))

	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(&sink)
	if err != nil || len(events) != 4 {
		t.Fatalf("journal sink = %+v, %v; want three task events and the stage_end", events, err)
	}
	end := events[3]
	if end.Type != EvStageEnd || end.Flight == nil || *end.Flight != rec {
		t.Errorf("stage_end.flight = %+v, want the record", end.Flight)
	}
	if end.Stage != rec.Stage || end.Op != rec.Op || end.Tasks != rec.Tasks ||
		end.Seconds != rec.MeasWallSeconds || end.Error != "boom" || end.Query != "q1" || end.Tenant != "acme" {
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
		row.MeasNetBytes != rec.NetBytes() || row.ExtraWireBytes != rec.MeasExtraWireBytes ||
		row.MeasFlops != rec.MeasFlops || row.MeasPeakMem != rec.MeasPeakTaskMemBytes ||
		row.MeasWallSeconds != rec.MeasWallSeconds {
		t.Errorf("calibration row = %+v, does not carry the record %+v", row, rec)
	}

	snap := o.Metrics.Snapshot()
	for name, want := range map[string]int64{
		MStagesTotal: 1, MTasksTotal: 3,
		MConsolidationBytes: rec.MeasConsolidationBytes, MAggregationBytes: rec.MeasAggregationBytes,
		MExtraBytes: rec.MeasExtraWireBytes, MFlopsTotal: rec.MeasFlops,
		MCacheHits: rec.CacheHits, MCacheMisses: rec.CacheMisses,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Gauges[MCacheSavedBytes]; got != float64(rec.CacheSavedBytes) {
		t.Errorf("%s = %g, want %d", MCacheSavedBytes, got, rec.CacheSavedBytes)
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
	none.TaskDone(TaskSample{})
	(&Obs{}).StageDone(rec, StageSkewOf(rec.Stage, samples), errors.New("boom"))
	(&Obs{}).TaskDone(TaskSample{})
}
