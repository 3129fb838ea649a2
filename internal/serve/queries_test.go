package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fuseme"
	"fuseme/internal/obs"
)

// TestFoldQueryRecords: GET /v1/queries folds each query's record from its
// journal events. A done query, one failed by a query error, one rejected at
// admission and one still queued each read every QueryRecord field from the
// one event that carries it, and the detail document folds the same record.
func TestFoldQueryRecords(t *testing.T) {
	cc := fuseme.LocalClusterConfig()
	cc.BlockSize = 16
	srv, err := New(Config{Cluster: cc, Tenants: []Tenant{{Name: "acme", Token: "a"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(script string, mem int64) int {
		body, _ := json.Marshal(QueryRequest{
			Script:     script,
			Inputs:     map[string]InputSpec{"X": {Rows: 8, Cols: 8, Random: &RandomSpec{Lo: 0, Hi: 1, Seed: 1}}},
			MemBytes:   mem,
			OmitValues: true,
		})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
		req.Header.Set("X-FuseMe-Token", "a")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	const good, bad = "O = X %*% t(X)", "O = ???"
	for _, c := range []struct {
		script string
		mem    int64
		code   int
	}{
		{good, 1, http.StatusOK},
		{bad, 1, http.StatusUnprocessableEntity},
		{good, 1 << 62, http.StatusRequestEntityTooLarge},
	} {
		if code := post(c.script, c.mem); code != c.code {
			t.Fatalf("%q with mem_bytes %d: status %d, want %d", c.script, c.mem, code, c.code)
		}
	}
	// Hold the whole reservation so the fourth query queues, and fold while
	// it waits.
	release, err := srv.adm.Acquire("acme", srv.adm.Reservation("acme"), 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan int, 1)
	go func() { queued <- post(good, 1) }()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if evs := srv.journal.Events("q-000004"); len(evs) > 0 && evs[len(evs)-1].Type == obs.EvQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the fourth query never queued")
		}
	}
	list := foldQueries(srv.journal.Retained())
	details := map[string]QueryDetail{}
	for _, id := range []string{"q-000001", "q-000002", "q-000003", "q-000004"} {
		d, ok := srv.detail(id)
		if !ok {
			t.Fatalf("no detail for %s", id)
		}
		details[id] = d
	}
	release()
	if code := <-queued; code != http.StatusOK {
		t.Errorf("the queued query ended with status %d, want 200", code)
	}

	// event returns the one event of a type among a query's events.
	event := func(id string, typ obs.EventType) obs.Event {
		t.Helper()
		var found []obs.Event
		for _, e := range details[id].Events {
			if e.Type == typ {
				found = append(found, e)
			}
		}
		if len(found) != 1 {
			t.Fatalf("%s has %d %s events, want 1", id, len(found), typ)
		}
		return found[0]
	}
	received := func(id string) QueryRecord {
		e := event(id, obs.EvReceived)
		return QueryRecord{ID: id, Tenant: "acme", Script: e.Script, ReceivedUnixNano: e.UnixNano, MemBytes: e.MemBytes}
	}
	done := received("q-000001")
	done.State = "done"
	done.QueueMillis = event("q-000001", obs.EvAdmitted).Seconds * 1e3
	done.ExecMillis = event("q-000001", obs.EvDone).Seconds * 1e3
	done.PlanCacheHit = event("q-000001", obs.EvPlanned).PlanCacheHit
	failed := received("q-000002")
	failed.State = "failed"
	failed.QueueMillis = event("q-000002", obs.EvAdmitted).Seconds * 1e3
	failed.ExecMillis = event("q-000002", obs.EvFailed).Seconds * 1e3
	failed.Error = event("q-000002", obs.EvFailed).Error
	rejected := received("q-000003")
	rejected.State = "rejected"
	rejected.Error = event("q-000003", obs.EvFailed).Error
	waiting := received("q-000004")
	waiting.State = "queued"
	event("q-000004", obs.EvQueued)

	// The events themselves hold what the handler knew.
	for _, c := range []struct {
		rec    QueryRecord
		script string
		mem    int64
	}{{done, good, 1}, {failed, bad, 1}, {rejected, good, 1 << 62}, {waiting, good, 1}} {
		if c.rec.Script != c.script || c.rec.MemBytes != c.mem || c.rec.ReceivedUnixNano == 0 {
			t.Errorf("%s: received event carries script %q, mem %d at %d; want %q and %d",
				c.rec.ID, c.rec.Script, c.rec.MemBytes, c.rec.ReceivedUnixNano, c.script, c.mem)
		}
	}
	if done.ExecMillis <= 0 || failed.ExecMillis <= 0 || failed.Error == "" {
		t.Errorf("done exec %g ms, failed exec %g ms and error %q: want times and an error", done.ExecMillis, failed.ExecMillis, failed.Error)
	}
	if !strings.HasPrefix(rejected.Error, ErrTooLarge.Error()) {
		t.Errorf("rejected error %q, want %q", rejected.Error, ErrTooLarge)
	}

	if len(list.Live) != 1 || list.Live[0] != waiting {
		t.Errorf("live = %+v\nwant [%+v]", list.Live, waiting)
	}
	want := []QueryRecord{rejected, failed, done} // the last to end first
	if len(list.Recent) != len(want) {
		t.Fatalf("recent = %+v, want %d records", list.Recent, len(want))
	}
	for i := range want {
		if list.Recent[i] != want[i] {
			t.Errorf("recent[%d] = %+v\nwant        %+v", i, list.Recent[i], want[i])
		}
	}
	for _, rec := range append(list.Live, list.Recent...) {
		if got := details[rec.ID].QueryRecord; got != rec {
			t.Errorf("detail %s folds %+v, the list %+v", rec.ID, got, rec)
		}
	}
}
