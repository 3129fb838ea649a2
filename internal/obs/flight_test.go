package obs

import (
	"bytes"
	"strings"
	"testing"
)

func sampleRecord(stage string) FlightRecord {
	return FlightRecord{
		Stage: stage, Op: "CFO mul#3", Kind: "CFO",
		P: 2, Q: 2, R: 1, Tasks: 4,
		PredNetBytes: 1 << 20, PredComFlops: 1 << 24, PredMemBytes: 1 << 18,
		MeasWallSeconds:        0.25,
		MeasConsolidationBytes: 900_000,
		MeasAggregationBytes:   120_000,
		MeasExtraWireBytes:     4_096,
		MeasFlops:              1 << 23,
		MeasPeakTaskMemBytes:   1 << 17,
		CacheHits:              6, CacheMisses: 2, CacheSavedBytes: 700_000,
	}
}

func TestFlightRecorderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fr := NewJSONL(&buf)
	want := []FlightRecord{sampleRecord("cuboid:mul#3"), sampleRecord("fuse:mul#3")}
	for _, r := range want {
		fr.Write(r)
	}
	if err := fr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 2 {
		t.Fatalf("wrote %d lines, want 2", lines)
	}
	got, err := ReadFlightRecords(&buf)
	if err != nil {
		t.Fatalf("ReadFlightRecords: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d records, want 2", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var fr *JSONL
	fr.Write(sampleRecord("s"))
	if fr.Flush() != nil {
		t.Fatal("nil flight recorder must absorb every call")
	}
}

func TestCalibrationFromFlight(t *testing.T) {
	recs := []FlightRecord{sampleRecord("cuboid:mul#3"), sampleRecord("cuboid:mul#3")}
	c := CalibrationFromFlight(recs)
	// Two executions of one stage collapse to one report row with runs=2.
	rep := c.Report(ClusterModel{Nodes: 2, NetBandwidth: 1e9, CompBandwidth: 1e10})
	if len(rep.Rows) != 1 || rep.Rows[0].Executions != 2 {
		t.Fatalf("report rows = %+v, want one row with 2 executions", rep.Rows)
	}
	row := rep.Rows[0]
	if row.P != 2 || row.Q != 2 || row.R != 1 || row.PredNetBytes != 2<<20 {
		t.Fatalf("rebuilt prediction mismatch: %+v", row)
	}
	if row.Stages != 2 || row.MeasWallSeconds != 0.5 {
		t.Fatalf("rebuilt totals = %+v, want 2 stages / 0.5s", row)
	}
	if row.MeasNetBytes != 2*(900_000+120_000) || row.ExtraWireBytes != 2*4_096 {
		t.Fatalf("rebuilt measurement mismatch: %+v", row)
	}
}
