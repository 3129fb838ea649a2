package obs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestJournalRingBounds(t *testing.T) {
	j := NewJournal(4, nil)
	q := j.Begin("q", "")
	for i := 1; i <= 10; i++ {
		q.Emit(Event{Type: EvDone})
		j.append(Event{Query: "other", Type: EvDone}) // interleaved, filtered out
	}
	// The ring retains the last four appends — two of them q's — oldest first.
	got := j.Events("q")
	if len(got) != 2 || got[0].Seq != 9 || got[1].Seq != 10 {
		t.Fatalf("Events(q) = %+v, want q's last two events (seq 9, 10) in order", got)
	}
	if other := j.Events("other"); len(other) != 2 {
		t.Fatalf("ring holds %d events of the other query, want 2", len(other))
	}
}

func TestJournalEventsFiltersByQuery(t *testing.T) {
	j := NewJournal(16, nil)
	a := j.Begin("qa", "acme")
	b := j.Begin("qb", "beta")
	a.Emit(Event{Type: EvPlanned})
	b.Emit(Event{Type: EvPlanned})
	a.Emit(Event{Type: EvStageStart, Stage: "s0"})
	a.Emit(Event{Type: EvDone})

	got := j.Events("qa")
	if len(got) != 3 {
		t.Fatalf("Events(qa) has %d events, want 3", len(got))
	}
	for i, e := range got {
		if e.Query != "qa" || e.Tenant != "acme" {
			t.Errorf("event %d: query=%q tenant=%q", i, e.Query, e.Tenant)
		}
		if e.Seq != int64(i+1) {
			t.Errorf("event %d: seq = %d, want %d", i, e.Seq, i+1)
		}
		if e.UnixNano == 0 {
			t.Errorf("event %d: missing timestamp", i)
		}
	}
	if types := []EventType{got[0].Type, got[1].Type, got[2].Type}; types[0] != EvPlanned || types[1] != EvStageStart || types[2] != EvDone {
		t.Fatalf("event order = %v", types)
	}
	if got := j.Events("nope"); got != nil {
		t.Fatalf("Events(nope) = %+v, want nil", got)
	}
}

func TestJournalSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(8, &buf)
	q := j.Begin("q1", "acme")
	q.Emit(Event{Type: EvPlanned, Plan: "CFO", PredSeconds: 1.5})
	q.Emit(Event{Type: EvStageEnd, Stage: "s0", Flight: &FlightRecord{Stage: "s0", PredNetBytes: 64}})
	q.Emit(Event{Type: EvDone, Seconds: 2})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("read %d events, want 3", len(got))
	}
	if got[0].Plan != "CFO" || got[0].PredSeconds != 1.5 {
		t.Fatalf("planned event round-trip: %+v", got[0])
	}
	if got[1].Flight == nil || got[1].Flight.PredNetBytes != 64 {
		t.Fatalf("stage_end flight round-trip: %+v", got[1])
	}
	if got[2].Seconds != 2 {
		t.Fatalf("done event round-trip: %+v", got[2])
	}
}

func TestJournalFileSink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	j := NewJournal(8, f)
	j.Begin("q1", "").Emit(Event{Type: EvDone, UnixNano: 42})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Query != "q1" || got[0].UnixNano != 42 {
		t.Fatalf("file round-trip = %+v", got)
	}
}

func TestJournalSinkLatchesError(t *testing.T) {
	j := NewJournal(2, failWriter{})
	j.append(Event{Query: "q1", Type: EvDone})
	if err := j.Flush(); err == nil {
		t.Fatal("Flush on a failing sink should latch an error")
	}
	if j.Flush() == nil {
		t.Fatal("a second Flush should still report the latched sink error")
	}
	// The ring keeps working regardless.
	if got := j.Events("q1"); len(got) != 1 {
		t.Fatalf("ring lost events after sink failure: %+v", got)
	}
}

func TestJournalNilSafety(t *testing.T) {
	var j *Journal
	j.append(Event{})
	if j.Events("q") != nil {
		t.Fatal("nil journal should absorb reads")
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	q := j.Begin("q", "")
	if q != nil {
		t.Fatal("Begin on nil journal should return nil")
	}
	q.Emit(Event{Type: EvDone}) // must not panic
}

func TestQueryLogConcurrentEmit(t *testing.T) {
	j := NewJournal(1024, nil)
	q := j.Begin("q1", "t")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q.Emit(Event{Type: EvStageStart})
			}
		}()
	}
	wg.Wait()
	got := j.Events("q1")
	if len(got) != 400 {
		t.Fatalf("got %d events, want 400", len(got))
	}
	seen := map[int64]bool{}
	for _, e := range got {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

// TestReadEventsSkipsBlankLinesAndRejectsGarbage drives the journal reader:
// blank lines are skipped, and a garbage line, a truncated last line or a
// line over 1 MiB is an error — never a panic, never a silently shorter
// result.
func TestReadEventsSkipsBlankLinesAndRejectsGarbage(t *testing.T) {
	const event = `{"query":"q1","seq":1,"type":"done"}`
	read := func(in string) (int, error) {
		got, err := ReadEvents(strings.NewReader(in))
		return len(got), err
	}
	if n, err := read("\n" + event + "\n\n" + event + "\n"); err != nil || n != 2 {
		t.Errorf("blank lines: read %d lines, err %v; want 2, nil", n, err)
	}
	bad := map[string]string{
		"garbage":             "not json\n",
		"interleaved garbage": event + "\n}{\n" + event + "\n",
		"truncated last line": event + "\n" + event[:len(event)/2],
		"line over 1 MiB":     event + "\n" + `{"stage":"` + strings.Repeat("x", 1<<20) + `"}` + "\n",
	}
	for what, in := range bad {
		if n, err := read(in); err == nil {
			t.Errorf("%s: read %d lines without an error", what, n)
		}
	}
	if got, _ := ReadEvents(strings.NewReader(event + "\n")); len(got) != 1 || got[0].Type != EvDone {
		t.Fatalf("ReadEvents = %+v", got)
	}
}

// failWriter always fails, to exercise the latched sink error.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("sink broken") }

// TestQueryLogPartsKeepOrder: events of part 1 emitted while part 0 is open
// are held, with the time they were emitted at, and follow part 0's once it
// closes; part 2, closed before part 1, follows part 1; an unopened part
// that is closed holds nothing up.
func TestQueryLogPartsKeepOrder(t *testing.T) {
	j := NewJournal(0, nil)
	parts := j.Begin("q1", "acme").Parts(4)
	parts[1].Emit(Event{Type: EvStageStart, Stage: "b"})
	held := j.Events("q1")
	parts[0].Emit(Event{Type: EvStageStart, Stage: "a"})
	parts[2].Emit(Event{Type: EvStageStart, Stage: "c"})
	parts[2].Close()
	parts[0].Emit(Event{Type: EvStageEnd, Stage: "a"})
	parts[0].Close()
	parts[1].Emit(Event{Type: EvStageEnd, Stage: "b"})
	parts[1].Close()
	parts[3].Close()
	if len(held) != 0 {
		t.Fatalf("part 1 reached the journal while part 0 was open: %+v", held)
	}
	var got []string
	var stamps []int64
	for i, e := range j.Events("q1") {
		if e.Seq != int64(i+1) || e.Tenant != "acme" || e.UnixNano == 0 {
			t.Errorf("event %d = %+v, want seq %d, the query's tenant and a time", i, e, i+1)
		}
		got = append(got, string(e.Type)+":"+e.Stage)
		stamps = append(stamps, e.UnixNano)
	}
	want := []string{"stage_start:a", "stage_end:a", "stage_start:b", "stage_end:b", "stage_start:c"}
	if !slices.Equal(got, want) {
		t.Fatalf("journal order %v, want %v", got, want)
	}
	if stamps[2] > stamps[0] {
		t.Errorf("b's held start is stamped %d, after a's start %d: it was emitted first", stamps[2], stamps[0])
	}
	var none *QueryLog
	for _, p := range none.Parts(2) {
		p.Emit(Event{Type: EvStageStart})
		p.Close()
	}
}
