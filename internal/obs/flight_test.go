package obs

import (
	"bytes"
	"strings"
	"testing"

	"fuseme/internal/cluster"
)

func sampleRecord(stage string) FlightRecord {
	return FlightRecord{
		Stage: stage, Op: "CFO mul#3", Kind: "CFO",
		P: 2, Q: 2, R: 1, Tasks: 4,
		PredNetBytes: 1 << 20, PredComFlops: 1 << 24, PredMemBytes: 1 << 18,
		Meas: cluster.Stats{SimSeconds: 0.25, ConsolidationBytes: 900_000, AggregationBytes: 120_000,
			ExtraWireBytes: 4_096, Flops: 1 << 23, PeakTaskMemBytes: 1 << 17,
			CacheHits: 6, CacheMisses: 2, CacheSavedBytes: 700_000},
	}
}

// TestFlightRecorderRoundTrip: the journal is the flight recorder — every
// StageDone writes one stage_end line whose flight reads back as the record.
func TestFlightRecorderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(0, &buf)
	o := &Obs{QLog: j.Begin("q1", "")}
	want := []FlightRecord{sampleRecord("cuboid:mul#3"), sampleRecord("fuse:mul#3")}
	for _, r := range want {
		o.StageDone(r, StageSkew{}, nil)
	}
	if err := j.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 2 {
		t.Fatalf("wrote %d lines, want 2", lines)
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d events, want 2", len(got))
	}
	for i := range want {
		if got[i].Type != EvStageEnd || got[i].Flight == nil || *got[i].Flight != want[i] {
			t.Fatalf("event %d: got %+v, want a stage_end carrying %+v", i, got[i], want[i])
		}
	}
}

// TestFlightRecorderNilSafe: with journaling off — no query log, or a nil
// journal — StageDone records nothing and nothing fails.
func TestFlightRecorderNilSafe(t *testing.T) {
	var j *Journal
	o := &Obs{QLog: j.Begin("q1", "")}
	o.StageDone(sampleRecord("s"), StageSkew{}, nil)
	(&Obs{}).StageDone(sampleRecord("s"), StageSkew{}, nil)
	if j.Flush() != nil || j.Events("q1") != nil {
		t.Fatal("nil journal must absorb every call")
	}
}

// TestCalibrationFromFlight rebuilds a calibration offline from a journal's
// events: each stage_end's flight record is measured, every other event is
// ignored.
func TestCalibrationFromFlight(t *testing.T) {
	rec := sampleRecord("cuboid:mul#3")
	events := []Event{
		{Type: EvPlanned, Plan: "CFO"},
		{Type: EvStageStart, Stage: rec.Stage},
		{Type: EvStageEnd, Stage: rec.Stage, Flight: &rec},
		{Type: EvStageEnd, Stage: "failed"}, // no flight record
		{Type: EvStageEnd, Stage: rec.Stage, Flight: &rec},
		{Type: EvDone},
	}
	c := CalibrationFromEvents(events)
	// Two executions of one stage collapse to one report row with runs=2.
	rep := c.Report(cluster.Config{Nodes: 2, NetBandwidth: 1e9, CompBandwidth: 1e10})
	if len(rep.Rows) != 1 || rep.Rows[0].Executions != 2 {
		t.Fatalf("report rows = %+v, want one row with 2 executions", rep.Rows)
	}
	row := rep.Rows[0]
	if row.P != 2 || row.Q != 2 || row.R != 1 || row.PredNetBytes != 2<<20 {
		t.Fatalf("rebuilt prediction mismatch: %+v", row)
	}
	if row.Stages != 2 || row.Meas.SimSeconds != 0.5 {
		t.Fatalf("rebuilt totals = %+v, want 2 stages / 0.5s", row)
	}
	if row.Meas.TotalCommBytes() != 2*(900_000+120_000) || row.Meas.ExtraWireBytes != 2*4_096 {
		t.Fatalf("rebuilt measurement mismatch: %+v", row)
	}
}
