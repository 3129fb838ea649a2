package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fuseme"
	"fuseme/internal/rt/remote"
	"fuseme/internal/serve"
)

// The two workload scripts the soak mixes: the paper's fused NMF kernel and
// the full GNMF multiplicative update (two outputs).
const (
	nmfScript  = "O = X * log(U %*% t(V) + 1e-3)"
	gnmfScript = "U2 = U * (t(V) %*% X) / (t(V) %*% V %*% U)\n" +
		"V2 = V * (X %*% t(U)) / (V %*% (U %*% t(U)))\n"
)

const (
	users, items, rank = 96, 80, 8
	testBlockSize      = 16
)

func testClusterConfig() fuseme.ClusterConfig {
	cc := fuseme.LocalClusterConfig()
	cc.BlockSize = testBlockSize
	return cc
}

// nmfInputs returns the request inputs and the matching local matrices for
// one tenant's NMF query (deterministic per seed).
func nmfInputs(seed int64) (map[string]serve.InputSpec, map[string]*fuseme.Matrix) {
	specs := map[string]serve.InputSpec{
		"X": {Rows: users, Cols: items, Random: &serve.RandomSpec{Kind: "sparse", Density: 0.08, Lo: 1, Hi: 5, Seed: seed}},
		"U": {Rows: users, Cols: rank, Random: &serve.RandomSpec{Kind: "dense", Lo: 0.5, Hi: 1.5, Seed: seed + 1}},
		"V": {Rows: items, Cols: rank, Random: &serve.RandomSpec{Kind: "dense", Lo: 0.5, Hi: 1.5, Seed: seed + 2}},
	}
	local := map[string]*fuseme.Matrix{
		"X": fuseme.NewRandomSparseMatrix(users, items, testBlockSize, 0.08, 1, 5, seed),
		"U": fuseme.NewRandomDenseMatrix(users, rank, testBlockSize, 0.5, 1.5, seed+1),
		"V": fuseme.NewRandomDenseMatrix(items, rank, testBlockSize, 0.5, 1.5, seed+2),
	}
	return specs, local
}

// gnmfInputs builds GNMF's X (users x items), U (k x items), V (users x k).
func gnmfInputs(seed int64) (map[string]serve.InputSpec, map[string]*fuseme.Matrix) {
	specs := map[string]serve.InputSpec{
		"X": {Rows: users, Cols: items, Random: &serve.RandomSpec{Kind: "sparse", Density: 0.08, Lo: 1, Hi: 5, Seed: seed}},
		"U": {Rows: rank, Cols: items, Random: &serve.RandomSpec{Kind: "dense", Lo: 0.5, Hi: 1.5, Seed: seed + 1}},
		"V": {Rows: users, Cols: rank, Random: &serve.RandomSpec{Kind: "dense", Lo: 0.5, Hi: 1.5, Seed: seed + 2}},
	}
	local := map[string]*fuseme.Matrix{
		"X": fuseme.NewRandomSparseMatrix(users, items, testBlockSize, 0.08, 1, 5, seed),
		"U": fuseme.NewRandomDenseMatrix(rank, items, testBlockSize, 0.5, 1.5, seed+1),
		"V": fuseme.NewRandomDenseMatrix(users, rank, testBlockSize, 0.5, 1.5, seed+2),
	}
	return specs, local
}

// serialReference executes a script on a fresh single session and returns
// the dense outputs.
func serialReference(t *testing.T, cc fuseme.ClusterConfig, script string, inputs map[string]*fuseme.Matrix) map[string][]float64 {
	t.Helper()
	sess, err := fuseme.NewSession(cc)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for name, m := range inputs {
		sess.Bind(name, m)
	}
	out, err := sess.Query(script)
	if err != nil {
		t.Fatal(err)
	}
	res := make(map[string][]float64, len(out))
	for name, m := range out {
		res[name] = m.Dense()
	}
	return res
}

// postQuery submits one request and returns the HTTP status, the decoded
// response (on 200) and the raw body.
func postQuery(t *testing.T, url, token string, req serve.QueryRequest) (int, *serve.QueryResponse, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		hreq.Header.Set("X-FuseMe-Token", token)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.IndexByte(raw, '\n') != len(raw)-1 {
		t.Errorf("the reply is not one compact line of JSON:\n%s", raw)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, raw
	}
	var qr serve.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatalf("decoding response: %v\n%s", err, raw)
	}
	return resp.StatusCode, &qr, raw
}

func getStatus(t *testing.T, url string) serve.Status {
	t.Helper()
	resp, err := http.Get(url + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func requireExact(t *testing.T, ctx string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: differs from serial run at %d: %g vs %g", ctx, i, got[i], want[i])
		}
	}
}

// requireClose enforces the TCP runtime's "bit-close" contract (the same
// 1e-12 relative bound as the block-cache differential suite): network
// arrival order makes cross-worker aggregation non-associative in the last
// ulp, so TCP runs are not bit-reproducible the way sim runs are.
func requireClose(t *testing.T, ctx string, got, want []float64, rel float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > rel*math.Max(1, math.Abs(want[i])) {
			t.Fatalf("%s: differs at %d: %g vs %g", ctx, i, got[i], want[i])
		}
	}
}

// TestServeConcurrentTenantsMatchSerial is the acceptance test: eight
// authenticated tenants hammer one warm sim instance concurrently with a
// GNMF and an NMF submission each, and every response is bit-identical to a
// serial one-session run of the same query. It then checks the plan cache
// took hits and that per-tenant counters surfaced on /v1/status and
// /metrics.
func TestServeConcurrentTenantsMatchSerial(t *testing.T) {
	const numTenants = 8
	var tenants []serve.Tenant
	for i := 0; i < numTenants; i++ {
		tenants = append(tenants, serve.Tenant{
			Name: fmt.Sprintf("t%d", i), Token: fmt.Sprintf("tok%d", i), Weight: i%3 + 1,
		})
	}
	cc := testClusterConfig()
	srv, err := serve.New(serve.Config{Cluster: cc, Tenants: tenants, Sessions: numTenants})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type job struct {
		tenant int
		script string
		specs  map[string]serve.InputSpec
		want   map[string][]float64
	}
	var jobs []job
	for i := 0; i < numTenants; i++ {
		seed := int64(100 * (i + 1))
		gSpecs, gLocal := gnmfInputs(seed)
		nSpecs, nLocal := nmfInputs(seed + 50)
		jobs = append(jobs,
			job{i, gnmfScript, gSpecs, serialReference(t, cc, gnmfScript, gLocal)},
			job{i, nmfScript, nSpecs, serialReference(t, cc, nmfScript, nLocal)},
		)
	}

	var wg sync.WaitGroup
	hits := make([]bool, len(jobs))
	for j, jb := range jobs {
		wg.Add(1)
		go func(j int, jb job) {
			defer wg.Done()
			code, qr, raw := postQuery(t, ts.URL, fmt.Sprintf("tok%d", jb.tenant), serve.QueryRequest{
				Script: jb.script, Inputs: jb.specs,
			})
			if code != http.StatusOK {
				t.Errorf("job %d: status %d: %s", j, code, raw)
				return
			}
			if qr.Tenant != fmt.Sprintf("t%d", jb.tenant) {
				t.Errorf("job %d: tenant %q", j, qr.Tenant)
			}
			for name, want := range jb.want {
				out, ok := qr.Outputs[name]
				if !ok {
					t.Errorf("job %d: missing output %q", j, name)
					return
				}
				requireExact(t, fmt.Sprintf("job %d output %s", j, name), out.Values, want)
			}
			hits[j] = qr.PlanCacheHit
		}(j, jb)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// 16 submissions of 2 distinct plan structures: the cache must have been
	// hit. (How many of the 16 hit depends on arrival order; at least one
	// submission per structure misses.)
	pcs := srv.PlanCacheStats()
	if pcs.Hits < 1 || pcs.Misses < 1 {
		t.Fatalf("plan cache hits=%d misses=%d, want both >= 1", pcs.Hits, pcs.Misses)
	}
	anyHit := false
	for _, h := range hits {
		anyHit = anyHit || h
	}
	if !anyHit {
		t.Fatal("no response reported plan_cache_hit")
	}

	st := getStatus(t, ts.URL)
	if len(st.Tenants) != numTenants {
		t.Fatalf("status lists %d tenants, want %d", len(st.Tenants), numTenants)
	}
	var statusHits int64
	for _, row := range st.Tenants {
		if row.Queries != 2 {
			t.Errorf("tenant %s: %d queries, want 2", row.Name, row.Queries)
		}
		if row.Errors != 0 || row.Rejects != 0 {
			t.Errorf("tenant %s: errors=%d rejects=%d", row.Name, row.Errors, row.Rejects)
		}
		if row.ReservedBytes <= 0 {
			t.Errorf("tenant %s: reserved_bytes = %d", row.Name, row.ReservedBytes)
		}
		if row.Tasks <= 0 {
			t.Errorf("tenant %s: tasks = %d", row.Name, row.Tasks)
		}
		statusHits += row.PlanCacheHits
	}
	if statusHits != pcs.Hits {
		t.Errorf("status plan hits %d != cache hits %d", statusHits, pcs.Hits)
	}
	if st.PlanCache.Hits != pcs.Hits {
		t.Errorf("status plan_cache.hits %d != %d", st.PlanCache.Hits, pcs.Hits)
	}

	// The counters must be visible on the Prometheus endpoint too.
	metrics := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"fuseme_plancache_hits_total",
		"fuseme_serve_queries_total 16",
		`fuseme_tenant_queries_total{tenant="t0"} 2`,
		`fuseme_tenant_reserved_bytes{tenant="t3"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	var promHits int64
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "fuseme_plancache_hits_total ") {
			fmt.Sscanf(line, "fuseme_plancache_hits_total %d", &promHits)
		}
	}
	if promHits != pcs.Hits {
		t.Errorf("/metrics plancache hits %d, want %d", promHits, pcs.Hits)
	}
}

// TestServeAdmissionControl checks the three admission outcomes over HTTP:
// a submission larger than the tenant's reservation is a 413, concurrent
// full-reservation submissions beyond the queue bound are 429 with
// Retry-After, and the rejects surface in /v1/status.
func TestServeAdmissionControl(t *testing.T) {
	quota := int64(1 << 20)
	srv, err := serve.New(serve.Config{
		Cluster: testClusterConfig(),
		Tenants: []serve.Tenant{{Name: "small", Token: "s", QuotaBytes: quota}},
		// One waiter max, and a wait far shorter than a query execution.
		QueueDepth: 1,
		QueueWait:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	specs, _ := gnmfInputs(7)

	// Over the whole reservation: never runnable, 413.
	code, _, body := postQuery(t, ts.URL, "s", serve.QueryRequest{
		Script: nmfScript, Inputs: specs, MemBytes: quota + 1,
	})
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submission: status %d: %s", code, body)
	}

	// Saturate: every submission demands the full reservation, so they
	// serialize; with a one-deep queue and a tiny wait, overlapping
	// submissions must produce 429s — and at least one succeeds. Under a
	// heavily loaded scheduler the goroutines can stagger enough that the
	// requests never overlap, so retry the round a bounded number of times
	// until both outcomes are observed.
	const n = 6
	ok, rejected := 0, 0
	for attempt := 0; attempt < 25 && (ok == 0 || rejected == 0); attempt++ {
		codes := make([]int, n)
		retryAfter := make([]string, n)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				body, _ := json.Marshal(serve.QueryRequest{
					Script: gnmfScript, Inputs: specs, MemBytes: quota, OmitValues: true,
				})
				req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
				req.Header.Set("X-FuseMe-Token", "s")
				<-start
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				io.Copy(io.Discard, resp.Body)
				codes[i] = resp.StatusCode
				retryAfter[i] = resp.Header.Get("Retry-After")
			}(i)
		}
		close(start)
		wg.Wait()
		ok, rejected = 0, 0
		for i, c := range codes {
			switch c {
			case http.StatusOK:
				ok++
			case http.StatusTooManyRequests:
				rejected++
				if retryAfter[i] == "" {
					t.Error("429 without Retry-After")
				}
			default:
				t.Errorf("unexpected status %d", c)
			}
		}
	}
	if ok == 0 {
		t.Fatal("no submission succeeded")
	}
	if rejected == 0 {
		t.Fatal("no submission was rejected under a saturated reservation")
	}

	st := getStatus(t, ts.URL)
	if len(st.Tenants) != 1 || st.Tenants[0].Rejects < int64(rejected)+1 {
		t.Fatalf("status rejects = %+v, want >= %d", st.Tenants, rejected+1)
	}
	if st.Tenants[0].InFlightBytes != 0 {
		t.Fatalf("in-flight bytes %d after all queries finished", st.Tenants[0].InFlightBytes)
	}
}

func TestServeAuth(t *testing.T) {
	srv, err := serve.New(serve.Config{
		Cluster: testClusterConfig(),
		Tenants: []serve.Tenant{{Name: "acme", Token: "s3cret"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	specs, _ := nmfInputs(1)
	req := serve.QueryRequest{Script: nmfScript, Inputs: specs, OmitValues: true}

	if code, _, _ := postQuery(t, ts.URL, "", req); code != http.StatusUnauthorized {
		t.Fatalf("no token: status %d", code)
	}
	if code, _, _ := postQuery(t, ts.URL, "wrong", req); code != http.StatusUnauthorized {
		t.Fatalf("bad token: status %d", code)
	}
	if code, _, _ := postQuery(t, ts.URL, "s3cret", req); code != http.StatusOK {
		t.Fatalf("X-FuseMe-Token: status %d", code)
	}

	// Authorization: Bearer works too.
	body, _ := json.Marshal(req)
	hreq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
	hreq.Header.Set("Authorization", "Bearer s3cret")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bearer token: status %d", resp.StatusCode)
	}
}

func TestServeBadRequests(t *testing.T) {
	srv, err := serve.New(serve.Config{Cluster: testClusterConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, err := http.Get(ts.URL + "/v1/query"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v1/query: status %d", resp.StatusCode)
		}
	}
	for name, req := range map[string]serve.QueryRequest{
		"empty script":    {Script: ""},
		"unknown dataset": {Script: "O = X + X", Inputs: map[string]serve.InputSpec{"X": {Dataset: "nope"}}},
		"empty spec":      {Script: "O = X + X", Inputs: map[string]serve.InputSpec{"X": {}}},
		"bad random kind": {Script: "O = X + X", Inputs: map[string]serve.InputSpec{"X": {Rows: 4, Cols: 4, Random: &serve.RandomSpec{Kind: "blob"}}}},
		"bad script":      {Script: "O = ???", Inputs: map[string]serve.InputSpec{"X": {Rows: 4, Cols: 4, Random: &serve.RandomSpec{}}}},
	} {
		code, _, _ := postQuery(t, ts.URL, "", req)
		if code != http.StatusBadRequest && code != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d", name, code)
		}
	}
}

// TestServeDataset checks a server-side named dataset shared by reference.
func TestServeDataset(t *testing.T) {
	cc := testClusterConfig()
	srv, err := serve.New(serve.Config{Cluster: cc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	x := fuseme.NewRandomSparseMatrix(users, items, testBlockSize, 0.08, 1, 5, 11)
	srv.RegisterDataset("ratings", x)

	specs, local := nmfInputs(21)
	specs["X"] = serve.InputSpec{Dataset: "ratings"}
	local["X"] = x
	want := serialReference(t, cc, nmfScript, local)

	code, qr, raw := postQuery(t, ts.URL, "", serve.QueryRequest{Script: nmfScript, Inputs: specs})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	requireExact(t, "dataset query", qr.Outputs["O"].Values, want["O"])
}

// TestServeDrain checks shutdown semantics: in-flight submissions complete,
// new ones get 503 + Retry-After, and Shutdown is idempotent.
func TestServeDrain(t *testing.T) {
	srv, err := serve.New(serve.Config{Cluster: testClusterConfig()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	specs, _ := gnmfInputs(5)
	req := serve.QueryRequest{Script: gnmfScript, Inputs: specs, OmitValues: true}

	// Launch a query, then drain while it (plausibly) still runs: it must
	// complete with 200 and Shutdown must wait for it.
	codeCh := make(chan int, 1)
	go func() {
		code, _, _ := postQuery(t, ts.URL, "", req)
		codeCh <- code
	}()
	time.Sleep(2 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code := <-codeCh; code != http.StatusOK && code != http.StatusServiceUnavailable {
		t.Fatalf("in-flight query: status %d", code)
	}
	if !srv.Draining() {
		t.Fatal("Draining() = false after Shutdown")
	}

	// New submissions are refused while draining.
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submission: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if st := getStatus(t, ts.URL); !st.Draining {
		t.Fatal("/v1/status draining = false")
	}

	// Second shutdown is a no-op.
	if err := srv.Close(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestServeSoakTCP runs the acceptance soak on the TCP runtime: one warm
// coordinator over two in-process workers, eight tenants submitting mixed
// GNMF and NMF queries concurrently, every response bit-identical to a
// serial one-session TCP run and within float tolerance of the simulator.
func TestServeSoakTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP soak skipped in -short mode")
	}
	addrs := make([]string, 2)
	for i := range addrs {
		w, err := remote.NewWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		addrs[i] = w.Addr()
	}
	cc := testClusterConfig()
	cc.Runtime = "tcp"
	cc.Workers = addrs
	cc.Nodes = len(addrs)

	const numTenants = 8
	var tenants []serve.Tenant
	for i := 0; i < numTenants; i++ {
		tenants = append(tenants, serve.Tenant{
			Name: fmt.Sprintf("t%d", i), Token: fmt.Sprintf("tok%d", i), Weight: i%2 + 1,
		})
	}
	srv, err := serve.New(serve.Config{Cluster: cc, Tenants: tenants, Sessions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Serial references on the same TCP cluster (separate session, same
	// workers) and on the simulator.
	simCC := testClusterConfig()
	type job struct {
		tenant  int
		script  string
		specs   map[string]serve.InputSpec
		tcpWant map[string][]float64
		simWant map[string][]float64
	}
	var jobs []job
	for i := 0; i < numTenants; i++ {
		seed := int64(1000 + 10*i)
		var specs map[string]serve.InputSpec
		var local map[string]*fuseme.Matrix
		script := nmfScript
		if i%2 == 0 {
			specs, local = gnmfInputs(seed)
			script = gnmfScript
		} else {
			specs, local = nmfInputs(seed)
		}
		jobs = append(jobs, job{
			tenant:  i,
			script:  script,
			specs:   specs,
			tcpWant: serialReference(t, cc, script, local),
			simWant: serialReference(t, simCC, script, local),
		})
	}

	var wg sync.WaitGroup
	for j, jb := range jobs {
		wg.Add(1)
		go func(j int, jb job) {
			defer wg.Done()
			code, qr, raw := postQuery(t, ts.URL, fmt.Sprintf("tok%d", jb.tenant), serve.QueryRequest{
				Script: jb.script, Inputs: jb.specs,
			})
			if code != http.StatusOK {
				t.Errorf("job %d: status %d: %s", j, code, raw)
				return
			}
			for name, want := range jb.tcpWant {
				requireClose(t, fmt.Sprintf("job %d output %s (vs serial tcp)", j, name), qr.Outputs[name].Values, want, 1e-12)
			}
			for name, want := range jb.simWant {
				requireClose(t, fmt.Sprintf("job %d output %s (vs sim)", j, name), qr.Outputs[name].Values, want, 1e-9)
			}
			if qr.Stats.Tasks == 0 {
				t.Errorf("job %d: zero tasks", j)
			}
		}(j, jb)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	st := getStatus(t, ts.URL)
	var queries int64
	for _, row := range st.Tenants {
		queries += row.Queries
	}
	if queries != numTenants {
		t.Fatalf("status counts %d queries, want %d", queries, numTenants)
	}
	if pcs := srv.PlanCacheStats(); pcs.Hits+pcs.Misses == 0 {
		t.Fatal("plan cache never consulted")
	}
	// A clean drain closes the coordinator sessions without error.
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
