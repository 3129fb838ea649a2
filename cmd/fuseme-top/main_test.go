package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fuseme"
	"fuseme/internal/serve"
)

// TestPollAndRender runs one query through a live serve handler, polls the
// three observability documents like the CLI does, and checks the rendered
// frame mentions the query, its tenant and the latency quantile columns.
func TestPollAndRender(t *testing.T) {
	cc := fuseme.LocalClusterConfig()
	cc.BlockSize = 16
	srv, err := serve.New(serve.Config{
		Cluster: cc,
		Tenants: []serve.Tenant{{Name: "acme", Token: "s3cret", Weight: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := serve.QueryRequest{
		Script: "O = X %*% Y",
		Inputs: map[string]serve.InputSpec{
			"X": {Rows: 48, Cols: 32, Random: &serve.RandomSpec{Lo: 0, Hi: 1, Seed: 1}},
			"Y": {Rows: 32, Cols: 48, Random: &serve.RandomSpec{Lo: 0, Hi: 1, Seed: 2}},
		},
		OmitValues: true,
	}
	body, _ := json.Marshal(req)
	hreq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
	hreq.Header.Set("X-FuseMe-Token", "s3cret")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d", resp.StatusCode)
	}

	c := &client{base: ts.URL, token: "s3cret", hc: http.DefaultClient}
	d, err := c.poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Queries.Recent) != 1 || d.Queries.Recent[0].ID != "q-000001" {
		t.Fatalf("recent queries = %+v, want one record q-000001", d.Queries.Recent)
	}
	if d.Queries.Recent[0].State != "done" {
		t.Fatalf("state = %q, want done", d.Queries.Recent[0].State)
	}

	var out strings.Builder
	render(&out, d)
	frame := out.String()
	for _, want := range []string{"q-000001", "acme", "done", "TENANT", "p95"} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
}

// TestSeries checks the label extraction used to pick per-worker slowdown
// series out of the metrics snapshot.
func TestSeries(t *testing.T) {
	if v, ok := series(`fuseme_worker_slowdown{worker="3"}`, "fuseme_worker_slowdown"); !ok || v != "3" {
		t.Fatalf("series = %q, %v", v, ok)
	}
	if _, ok := series("fuseme_worker_slowdown", "fuseme_worker_slowdown"); ok {
		t.Fatal("bare family name should not match")
	}
	if _, ok := series(`fuseme_stage_skew{x="1"}`, "fuseme_worker_slowdown"); ok {
		t.Fatal("different family should not match")
	}
}

// TestFmtSeconds pins the adaptive duration formatting.
func TestFmtSeconds(t *testing.T) {
	cases := map[float64]string{0: "-", 0.0000005: "0µs", 0.0123: "12.3ms", 2.5: "2.50s"}
	for in, want := range cases {
		if got := fmtSeconds(in); got != want {
			t.Errorf("fmtSeconds(%g) = %q, want %q", in, got, want)
		}
	}
}

// TestRenderBoundsRecentQueries: a frame shows every live query and the
// maxRecentRows most recently ended ones, however many the server lists.
func TestRenderBoundsRecentQueries(t *testing.T) {
	var d dashboard
	d.Queries.Live = []serve.QueryRecord{{ID: "q-000300", State: "running"}}
	for i := 299; i > 0; i-- {
		d.Queries.Recent = append(d.Queries.Recent, serve.QueryRecord{ID: fmt.Sprintf("q-%06d", i), State: "done"})
	}
	var out strings.Builder
	render(&out, d)
	frame := out.String()
	if rows := strings.Count(frame, "\nq-"); rows != 1+maxRecentRows {
		t.Errorf("frame shows %d query rows, want %d", rows, 1+maxRecentRows)
	}
	for _, want := range []string{"q-000300", "q-000299", fmt.Sprintf("q-%06d", 300-maxRecentRows)} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame lacks %s", want)
		}
	}
	if strings.Contains(frame, fmt.Sprintf("q-%06d", 299-maxRecentRows)) {
		t.Errorf("frame shows a query older than the %d most recent", maxRecentRows)
	}
}
