package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fuseme"
	"fuseme/internal/obs"
)

// TestStatusReadsTheRegistry: each /v1/status tenant row is the registry's
// fuseme_tenant_* series for that tenant. After one success, one plan-cache
// hit, one 422 and one 429 every row equals the series, and a tenant that
// never submitted has all six series, at zero, from New on.
func TestStatusReadsTheRegistry(t *testing.T) {
	cc := fuseme.LocalClusterConfig()
	cc.BlockSize = 16
	srv, err := New(Config{
		Cluster:   cc,
		Tenants:   []Tenant{{Name: "acme", Token: "a"}, {Name: "idle", Token: "i"}},
		QueueWait: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(script string) int {
		t.Helper()
		body, _ := json.Marshal(QueryRequest{
			Script:     script,
			Inputs:     map[string]InputSpec{"X": {Rows: 8, Cols: 8, Random: &RandomSpec{Lo: 0, Hi: 1, Seed: 1}}},
			MemBytes:   1,
			OmitValues: true,
		})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
		req.Header.Set("X-FuseMe-Token", "a")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	const script = "O = X %*% t(X)"
	for i, want := range []int{http.StatusOK, http.StatusOK} {
		if code := post(script); code != want {
			t.Fatalf("query %d: status %d, want %d", i, code, want)
		}
	}
	if code := post("O = ???"); code != http.StatusUnprocessableEntity {
		t.Fatalf("bad script: status %d, want 422", code)
	}
	// Hold the whole reservation: the next submission queues, waits out
	// QueueWait and is rejected.
	release, err := srv.adm.Acquire("acme", srv.adm.Reservation("acme"), 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	code := post(script)
	release()
	if code != http.StatusTooManyRequests {
		t.Fatalf("submission over a held reservation: status %d, want 429", code)
	}

	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	snap := srv.Registry().Snapshot()
	for _, row := range st.Tenants {
		for family, got := range map[string]int64{
			obs.MTenantQueries: row.Queries, obs.MTenantErrors: row.Errors,
			obs.MTenantRejects: row.Rejects, obs.MTenantPlanHits: row.PlanCacheHits,
			obs.MTenantTasks: row.Tasks, obs.MTenantBytes: row.WireBytes,
		} {
			series := obs.TenantSeries(family, row.Name)
			if want, ok := snap.Counters[series]; !ok {
				t.Errorf("the registry has no series %s", series)
			} else if got != want {
				t.Errorf("status reports %d for %s, the registry %d", got, series, want)
			}
		}
	}
	if len(st.Tenants) != 2 {
		t.Fatalf("status lists %d tenants, want 2", len(st.Tenants))
	}
	acme := st.Tenants[0]
	if acme.Queries != 3 || acme.Errors != 1 || acme.Rejects != 1 || acme.PlanCacheHits != 1 || acme.Tasks == 0 {
		t.Errorf("acme row %+v, want 3 queries, 1 error, 1 reject, 1 plan hit and some tasks", acme)
	}
}
