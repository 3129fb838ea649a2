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
// stay consistent (every submission eventually is listed with a
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
	cc := testClusterConfig()
	cc.NetBandwidth = 0 // serve.New takes its budget from the shape; NewSession refuses the bandwidth
	srv, err := serve.New(serve.Config{Cluster: cc, Sessions: 1})
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

// TestQueryReplyStatsKeys: a /v1/query reply's stats object is the runtime's
// cluster.Stats, so the same query on a session that serves /debug/stats
// reads the same counters under the same keys.
func TestQueryReplyStatsKeys(t *testing.T) {
	srv, err := serve.New(serve.Config{Cluster: testClusterConfig(), Sessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	specs, local := nmfInputs(1)
	code, _, raw := postQuery(t, ts.URL, "", serve.QueryRequest{Script: nmfScript, Inputs: specs, OmitValues: true})
	if code != http.StatusOK {
		t.Fatalf("query: status %d: %s", code, raw)
	}
	var reply struct {
		Stats map[string]any `json:"stats"`
	}
	if err := json.Unmarshal(raw, &reply); err != nil {
		t.Fatal(err)
	}

	sess, err := fuseme.NewSession(testClusterConfig(), fuseme.WithMetricsAddr("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for name, m := range local {
		sess.Bind(name, m)
	}
	if _, err := sess.Query(nmfScript); err != nil {
		t.Fatal(err)
	}
	var debug struct {
		Stats map[string]any `json:"stats"`
	}
	if code := getJSON(t, "http://"+sess.MetricsAddr()+"/debug/stats", &debug); code != http.StatusOK {
		t.Fatalf("/debug/stats: status %d", code)
	}

	if reply.Stats["flops"] == nil || reply.Stats["tasks"] == nil {
		t.Fatalf("reply stats %v lack flops or tasks", reply.Stats)
	}
	// The counters one plan fixes read equal; how many tasks a lane stole
	// and the wall times depend on the run. sim_seconds is the plan's
	// clock, which the query reports and the runtime does not keep.
	for _, key := range []string{"consolidation_bytes", "aggregation_bytes", "flops", "stages", "tasks",
		"peak_task_mem_bytes", "max_task_flops"} {
		if reply.Stats[key] != debug.Stats[key] {
			t.Errorf("%s: reply %v, /debug/stats %v", key, reply.Stats[key], debug.Stats[key])
		}
	}
	if reply.Stats["sim_seconds"] == nil || debug.Stats["sim_seconds"] != nil {
		t.Errorf("sim_seconds: reply %v, /debug/stats %v; want the plan's clock in the reply only",
			reply.Stats["sim_seconds"], debug.Stats["sim_seconds"])
	}
	for key := range reply.Stats {
		if _, ok := debug.Stats[key]; !ok && key != "steal_tasks" && key != "sim_seconds" {
			t.Errorf("the reply's stats have %q, /debug/stats has no such key: %v", key, debug.Stats)
		}
	}
}

// TestQueriesListEachQueryOnce: eight clients each submit a query that
// succeeds, one that fails and one that admission rejects, while a poller
// reads GET /v1/queries. Every snapshot lists each query at most once, and
// the last lists all of them exactly once, each in its terminal state.
func TestQueriesListEachQueryOnce(t *testing.T) {
	srv, err := serve.New(serve.Config{Cluster: testClusterConfig(), Sessions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 8
	specs, _ := nmfInputs(1)
	kinds := []struct {
		req   serve.QueryRequest
		code  int
		state string
	}{
		{serve.QueryRequest{Script: nmfScript, Inputs: specs, OmitValues: true}, http.StatusOK, "done"},
		{serve.QueryRequest{Script: "O = X %*% Q", Inputs: specs, OmitValues: true}, http.StatusUnprocessableEntity, "failed"},
		{serve.QueryRequest{Script: nmfScript, Inputs: specs, MemBytes: 1 << 62, OmitValues: true}, http.StatusRequestEntityTooLarge, "rejected"},
	}
	listOnce := func() (serve.QueryList, error) {
		var list serve.QueryList
		if code := getJSON(t, ts.URL+"/v1/queries", &list); code != http.StatusOK {
			return list, fmt.Errorf("/v1/queries: status %d", code)
		}
		seen := map[string]bool{}
		for _, q := range append(list.Live, list.Recent...) {
			if seen[q.ID] {
				return list, fmt.Errorf("query %s listed twice", q.ID)
			}
			seen[q.ID] = true
		}
		return list, nil
	}

	errs := make(chan error, clients*len(kinds)+1)
	poll := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-poll:
				return
			default:
			}
			if _, err := listOnce(); err != nil {
				errs <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range kinds {
				kind := kinds[(c+k)%len(kinds)]
				if code, _, raw := postQuery(t, ts.URL, "", kind.req); code != kind.code {
					errs <- fmt.Errorf("client %d, %s query: status %d, want %d: %s", c, kind.state, code, kind.code, raw)
				}
			}
		}()
	}
	wg.Wait()
	close(poll)
	<-polled
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	list, err := listOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Live) != 0 || len(list.Recent) != clients*len(kinds) {
		t.Fatalf("%d live and %d recent queries, want 0 and %d", len(list.Live), len(list.Recent), clients*len(kinds))
	}
	states := map[string]int{}
	for _, q := range list.Recent {
		states[q.State]++
	}
	for _, kind := range kinds {
		if states[kind.state] != clients {
			t.Errorf("%d queries %s, want %d (all: %v)", states[kind.state], kind.state, clients, states)
		}
	}
	for i := 1; i <= clients*len(kinds); i++ {
		if id := fmt.Sprintf("q-%06d", i); srv.Journal().Events(id) == nil {
			t.Errorf("the journal holds no events of %s", id)
		}
	}
}
