package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"fuseme"
	"fuseme/internal/obs"
	"fuseme/internal/serve"
)

// getJSON decodes a GET response into v, returning the status code.
func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestQueryIntrospection runs one query and checks GET /v1/queries and
// GET /v1/queries/{id}: the lifecycle event sequence, the EXPLAIN ANALYZE
// stage list, and — the invariant the endpoint is built on — that the
// per-stage flight records served over HTTP are exactly the records the
// journal file's stage_end lines carry.
func TestQueryIntrospection(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "journal.jsonl")
	srv, err := serve.New(serve.Config{
		Cluster:     testClusterConfig(),
		Tenants:     []serve.Tenant{{Name: "acme", Token: "tok", Weight: 1}},
		Sessions:    1,
		JournalPath: journalPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	specs, _ := nmfInputs(1)
	code, qr, raw := postQuery(t, ts.URL, "tok", serve.QueryRequest{
		Script: nmfScript, Inputs: specs, OmitValues: true,
	})
	if code != http.StatusOK {
		t.Fatalf("query: status %d: %s", code, raw)
	}
	_ = qr

	// The list endpoint: one finished query, no live ones.
	var list serve.QueryList
	if code := getJSON(t, ts.URL+"/v1/queries", &list); code != http.StatusOK {
		t.Fatalf("/v1/queries: status %d", code)
	}
	if len(list.Live) != 0 || len(list.Recent) != 1 {
		t.Fatalf("list = %d live / %d recent, want 0/1", len(list.Live), len(list.Recent))
	}
	rec := list.Recent[0]
	if rec.Tenant != "acme" || rec.State != "done" || rec.ExecMillis <= 0 {
		t.Fatalf("record = %+v", rec)
	}

	// The detail endpoint: plan annotation, events in order, stage statuses.
	var d serve.QueryDetail
	if code := getJSON(t, ts.URL+"/v1/queries/"+rec.ID, &d); code != http.StatusOK {
		t.Fatalf("/v1/queries/%s: status %d", rec.ID, code)
	}
	if d.Plan == "" || d.Engine == "" || d.PredSeconds <= 0 {
		t.Fatalf("detail plan annotation missing: engine=%q pred=%g plan=%q", d.Engine, d.PredSeconds, d.Plan)
	}
	if len(d.Stages) == 0 {
		t.Fatal("detail has no stages")
	}
	var types []obs.EventType
	for _, e := range d.Events {
		types = append(types, e.Type)
	}
	if len(types) < 4 || types[0] != obs.EvReceived || types[len(types)-1] != obs.EvDone {
		t.Fatalf("event sequence = %v", types)
	}
	sawPlanned := false
	for _, e := range d.Events {
		if e.Type == obs.EvPlanned {
			sawPlanned = true
		}
	}
	if !sawPlanned {
		t.Fatalf("no planned event in %v", types)
	}
	for i := 1; i < len(d.Events); i++ {
		if d.Events[i].Seq != d.Events[i-1].Seq+1 {
			t.Fatalf("event %d: seq %d after %d", i, d.Events[i].Seq, d.Events[i-1].Seq)
		}
	}

	// Drain the server, which flushes and closes the journal file, and
	// compare: the stages the endpoint served must be exactly the flight
	// records of the file's stage_end lines.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	var recs []obs.FlightRecord
	for _, e := range events {
		if e.Type == obs.EvStageEnd && e.Query == rec.ID {
			recs = append(recs, *e.Flight)
		}
	}
	if len(recs) != len(d.Stages) {
		t.Fatalf("journal file holds %d stage_end records, endpoint served %d stages", len(recs), len(d.Stages))
	}
	for i, st := range d.Stages {
		if st.Flight == nil {
			t.Fatalf("stage %d has no flight record", i)
		}
		if !reflect.DeepEqual(*st.Flight, recs[i]) {
			t.Errorf("stage %d: endpoint flight %+v\n!= journal file %+v", i, *st.Flight, recs[i])
		}
		if st.Stage != recs[i].Stage || st.Op != recs[i].Op {
			t.Errorf("stage %d labels: %s/%s vs %s/%s", i, st.Stage, st.Op, recs[i].Stage, recs[i].Op)
		}
	}

	// Tenant SLO histograms observed the query.
	snap := srv.Registry().Snapshot()
	if h := snap.Histograms[obs.TenantSeries(obs.MTenantQueueSeconds, "acme")]; h.Count != 1 {
		t.Errorf("tenant queue histogram = %+v, want one observation", h)
	}
	if h := snap.Histograms[obs.TenantSeries(obs.MTenantQuerySeconds, "acme")]; h.Count != 1 || h.P95 <= 0 {
		t.Errorf("tenant query histogram = %+v, want one observation with quantiles", h)
	}
}

// TestQueriesEndpointErrors pins the endpoint's error contract.
func TestQueriesEndpointErrors(t *testing.T) {
	srv, err := serve.New(serve.Config{Cluster: testClusterConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var v any
	if code := getJSON(t, ts.URL+"/v1/queries/q-999999", &v); code != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404", code)
	}
	resp, err := http.Post(ts.URL+"/v1/queries", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/queries: status %d, want 405", resp.StatusCode)
	}
}

// TestStatusUnderConcurrentQueries hammers /v1/status and /v1/queries while
// a batch of concurrent queries runs, checking the introspection endpoints
// stay consistent (every submission eventually lands in the registry with a
// terminal state and a coherent event log).
func TestStatusUnderConcurrentQueries(t *testing.T) {
	srv, err := serve.New(serve.Config{
		Cluster:  testClusterConfig(),
		Tenants:  []serve.Tenant{{Name: "acme", Token: "a", Weight: 2}, {Name: "beta", Token: "b", Weight: 1}},
		Sessions: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const perTenant = 4
	var wg sync.WaitGroup
	errs := make(chan error, 2*perTenant)
	for i := 0; i < perTenant; i++ {
		for _, tok := range []string{"a", "b"} {
			wg.Add(1)
			go func(tok string, seed int64) {
				defer wg.Done()
				specs, _ := nmfInputs(seed)
				code, _, raw := postQuery(t, ts.URL, tok, serve.QueryRequest{
					Script: nmfScript, Inputs: specs, OmitValues: true,
				})
				if code != http.StatusOK {
					errs <- fmt.Errorf("tenant %s: status %d: %s", tok, code, raw)
				}
			}(tok, int64(i+1))
		}
	}
	// Poll the observability endpoints while queries are in flight.
	poll := make(chan struct{})
	var pollWg sync.WaitGroup
	pollWg.Add(1)
	go func() {
		defer pollWg.Done()
		for {
			select {
			case <-poll:
				return
			default:
			}
			var st serve.Status
			if code := getJSON(t, ts.URL+"/v1/status", &st); code != http.StatusOK {
				errs <- fmt.Errorf("/v1/status: status %d", code)
				return
			}
			if st.SessionsBusy < 0 || st.SessionsBusy > st.Sessions {
				errs <- fmt.Errorf("sessions busy %d of %d", st.SessionsBusy, st.Sessions)
				return
			}
			var list serve.QueryList
			if code := getJSON(t, ts.URL+"/v1/queries", &list); code != http.StatusOK {
				errs <- fmt.Errorf("/v1/queries: status %d", code)
				return
			}
			for _, q := range list.Live {
				if q.State != "queued" && q.State != "running" {
					errs <- fmt.Errorf("live query %s in state %q", q.ID, q.State)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(poll)
	pollWg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var list serve.QueryList
	getJSON(t, ts.URL+"/v1/queries", &list)
	if len(list.Live) != 0 || len(list.Recent) != 2*perTenant {
		t.Fatalf("after drain: %d live, %d recent, want 0/%d", len(list.Live), len(list.Recent), 2*perTenant)
	}
	for _, q := range list.Recent {
		if q.State != "done" {
			t.Errorf("query %s finished in state %q", q.ID, q.State)
		}
		var d serve.QueryDetail
		if code := getJSON(t, ts.URL+"/v1/queries/"+q.ID, &d); code != http.StatusOK {
			t.Fatalf("detail %s: status %d", q.ID, code)
		}
		if len(d.Events) == 0 || d.Events[len(d.Events)-1].Type != obs.EvDone {
			t.Errorf("query %s: incomplete event log (%d events)", q.ID, len(d.Events))
		}
	}
	var st serve.Status
	getJSON(t, ts.URL+"/v1/status", &st)
	var total int64
	for _, ten := range st.Tenants {
		total += ten.Queries
	}
	if total != 2*perTenant {
		t.Fatalf("tenant query counters sum to %d, want %d", total, 2*perTenant)
	}
}

// TestServeSessionsShareTheServersJournal: with FUSEME_JOURNAL set, a pooled
// session journals into the server's journal and opens no file of its own —
// at the variable's path, a session used to truncate whatever was there,
// the server's own -journal file included.
func TestServeSessionsShareTheServersJournal(t *testing.T) {
	dir := t.TempDir()
	t.Setenv(fuseme.EnvJournal, filepath.Join(dir, "session.jsonl"))
	srv, err := serve.New(serve.Config{Cluster: testClusterConfig(), Sessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	specs, _ := nmfInputs(1)
	for range 2 {
		if code, _, raw := postQuery(t, ts.URL, "", serve.QueryRequest{Script: nmfScript, Inputs: specs, OmitValues: true}); code != http.StatusOK {
			t.Fatalf("query: status %d: %s", code, raw)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("serving created %d files under FUSEME_JOURNAL's directory (err %v), want none", len(entries), err)
	}
	var list serve.QueryList
	if code := getJSON(t, ts.URL+"/v1/queries", &list); code != http.StatusOK || len(list.Recent) != 2 {
		t.Fatalf("/v1/queries: status %d, %d recent, want 2", code, len(list.Recent))
	}
	for _, rec := range list.Recent {
		evs := srv.Journal().Events(rec.ID)
		if len(evs) == 0 || evs[len(evs)-1].Type != obs.EvDone {
			t.Errorf("query %s: journal ends %v, want a done event", rec.ID, evs)
		}
	}
}

// TestServeSessionFailureEndsTheJournal: a query whose pooled session
// cannot be created is recorded failed, and its journal ends with a failed
// event instead of stopping at admitted.
func TestServeSessionFailureEndsTheJournal(t *testing.T) {
	srv, err := serve.New(serve.Config{
		Cluster:        testClusterConfig(),
		Sessions:       1,
		SessionOptions: []fuseme.Option{fuseme.WithBlockCache(-1)}, // NewSession refuses it
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	specs, _ := nmfInputs(1)
	if code, _, raw := postQuery(t, ts.URL, "", serve.QueryRequest{Script: nmfScript, Inputs: specs, OmitValues: true}); code != http.StatusInternalServerError {
		t.Fatalf("query: status %d, want 500: %s", code, raw)
	}
	var list serve.QueryList
	if code := getJSON(t, ts.URL+"/v1/queries", &list); code != http.StatusOK || len(list.Recent) != 1 {
		t.Fatalf("/v1/queries: status %d, %d recent, want 1", code, len(list.Recent))
	}
	rec := list.Recent[0]
	evs := srv.Journal().Events(rec.ID)
	if rec.State != "failed" || len(evs) == 0 {
		t.Fatalf("record %+v, events %v", rec, evs)
	}
	if last := evs[len(evs)-1]; last.Type != obs.EvFailed || last.Error == "" {
		t.Errorf("journal ends with %+v, want a failed event with the error", last)
	}
}

// TestServeRejectsUnknownEngine: an engine name no session can run is a
// start-up error, not a 500 on every query.
func TestServeRejectsUnknownEngine(t *testing.T) {
	if _, err := serve.New(serve.Config{Cluster: testClusterConfig(), Engine: "spark"}); err == nil || !strings.Contains(err.Error(), "spark") {
		t.Errorf("serve.New with engine %q: err = %v, want one naming it", "spark", err)
	}
	if _, err := serve.New(serve.Config{Cluster: testClusterConfig(), Engine: fuseme.EngineSystemDS}); err != nil {
		t.Errorf("serve.New with engine %q: %v", fuseme.EngineSystemDS, err)
	}
}
