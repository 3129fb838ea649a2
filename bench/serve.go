package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"fuseme"
	"fuseme/internal/block"
	"fuseme/internal/matrix"
	"fuseme/internal/plancache"
	"fuseme/internal/serve"
)

// serve_http: closed loop, one client per tenant, each waits for its reply
// before sending the next request. Admission overload (429/503) cannot occur
// at two connections against a pool of eight sessions and is out of scope;
// any refusal counts as a failed op.
const (
	serveClients   = 2
	serveBlockSize = 128
	serveWarm      = 200 // warm-up requests, split across the clients
	serveInline    = 64  // inline_io matrices are serveInline x serveInline
	inlinePool     = 32  // pre-encoded inline_io bodies per client
)

// Request kinds. Each client sends them in seeded-shuffled blocks of 20 that
// each hold exactly 14 hot_kernel, 3 cold_shape and 3 inline_io (70/15/15),
// so the mix of a run does not depend on how many requests fit into it.
const (
	kindHot    = iota // NMF kernel on registered datasets, omit_values
	kindCold          // same script, server-generated inputs of a never-seen shape
	kindInline        // 64x64 inline values, Y = A %*% t(A), values returned
	numKinds
)

var kindNames = [numKinds]string{"hot_kernel", "cold_shape", "inline_io"}

var mixBlock = [20]int{
	kindHot, kindHot, kindHot, kindHot, kindHot, kindHot, kindHot,
	kindHot, kindHot, kindHot, kindHot, kindHot, kindHot, kindHot,
	kindCold, kindCold, kindCold, kindInline, kindInline, kindInline,
}

const inlineScript = `Y = A %*% t(A)`

// serveShape is the scaled geometry of the serve workload.
type serveShape struct {
	n, k           int     // datasets: X n x n sparse, U and V n x k
	density        float64 // of X and of the cold_shape X
	coldLo, coldHi int     // cold_shape dims are drawn from [coldLo, coldHi)
	bs             int
}

func serveShapeAt(scale float64, bs int) serveShape {
	s := serveShape{n: dim(1024, scale), k: 32, density: sparsity(0.05, scale), coldLo: dim(256, scale), coldHi: dim(512, scale), bs: bs}
	if s.coldHi <= s.coldLo {
		s.coldHi = s.coldLo + 1
	}
	return s
}

func (s serveShape) datasets(seed int64) []inputDef {
	return []inputDef{
		{name: "X", rows: s.n, cols: s.n, density: s.density, lo: 1, hi: 5, seed: seed*1000 + 1},
		{name: "U", rows: s.n, cols: s.k, lo: 0.1, hi: 0.9, seed: seed*1000 + 2},
		{name: "V", rows: s.n, cols: s.k, lo: 0.1, hi: 0.9, seed: seed*1000 + 3},
	}
}

// coldInputs returns the server-generated inputs of the i-th cold_shape
// request: dims from a seeded permutation of all (rows, cols) pairs, so no
// shape repeats until the permutation is exhausted.
func (s serveShape) coldInputs(perm []int, i int, seed int64) []inputDef {
	span := s.coldHi - s.coldLo
	p := perm[i%len(perm)]
	rows, cols := s.coldLo+p/span, s.coldLo+p%span
	base := seed*1000 + 10 + int64(i)*3
	return []inputDef{
		{name: "X", rows: rows, cols: cols, density: s.density, lo: 1, hi: 5, seed: base},
		{name: "U", rows: rows, cols: s.k, lo: 0.1, hi: 0.9, seed: base + 1},
		{name: "V", rows: cols, cols: s.k, lo: 0.1, hi: 0.9, seed: base + 2},
	}
}

func randomSpecOf(d inputDef) serve.InputSpec {
	rs := &serve.RandomSpec{Kind: "dense", Lo: d.lo, Hi: d.hi, Seed: d.seed}
	if d.density > 0 {
		rs.Kind, rs.Density = "sparse", d.density
	}
	return serve.InputSpec{Rows: d.rows, Cols: d.cols, Random: rs}
}

// inlineCase is one pre-built inline_io request with its expected result.
type inlineCase struct {
	values []float64
	body   []byte
	want   []float64
}

func newInlineCase(seed int64) inlineCase {
	a := matrix.RandomDense(serveInline, serveInline, -1, 1, seed)
	want := matrix.ToDense(matrix.MatMul(a, matrix.Transpose(a))).Data
	body, _ := json.Marshal(serve.QueryRequest{Script: inlineScript, // marshalling plain floats cannot fail
		Inputs: map[string]serve.InputSpec{"A": {Rows: serveInline, Cols: serveInline, Values: a.Data}}})
	return inlineCase{values: a.Data, body: body, want: want}
}

// serveEnv is one set-up server with its clients.
type serveEnv struct {
	shape   serveShape
	seed    int64
	srv     *serve.Server
	ts      *httptest.Server
	clients [serveClients]*http.Client
	tokens  [serveClients]string
	hotBody []byte
	inline  [serveClients][]inlineCase
	perm    []int
	xNNZ    int
}

func setupServe(scale float64, bs int, seed int64) (*serveEnv, error) {
	e := &serveEnv{shape: serveShapeAt(scale, bs), seed: seed}
	cfg := serve.Config{Cluster: publicClusterConfig(bs, nil)}
	for c := 0; c < serveClients; c++ {
		e.tokens[c] = fmt.Sprintf("token-%d", c)
		cfg.Tenants = append(cfg.Tenants, serve.Tenant{Name: fmt.Sprintf("tenant%d", c), Token: e.tokens[c], Weight: 1})
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	e.srv = srv
	for _, d := range e.shape.datasets(seed) {
		m := d.public(bs)
		if d.name == "X" {
			e.xNNZ = m.NNZ()
		}
		srv.RegisterDataset(d.name, m)
	}
	e.ts = httptest.NewServer(srv.Handler())
	e.hotBody = hotBody(true)
	for c := 0; c < serveClients; c++ {
		e.clients[c] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
		for i := 0; i < inlinePool; i++ {
			e.inline[c] = append(e.inline[c], newInlineCase(seed*1000+500+int64(c*inlinePool+i)))
		}
	}
	span := e.shape.coldHi - e.shape.coldLo
	e.perm = rand.New(rand.NewSource(seed)).Perm(span * span)
	return e, nil
}

func (e *serveEnv) close() {
	for _, c := range e.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	e.ts.Close()
	e.srv.Close()
}

// serveSample is one completed request.
type serveSample struct {
	kind            int
	lat             time.Duration
	queueMS, execMS float64
	rejected        bool
}

// client is one closed-loop tenant. Its request sequence is drawn from its
// own seeded stream; coldN numbers its cold_shape requests so the two
// clients never send the same shape.
type client struct {
	e     *serveEnv
	id    int
	rng   *rand.Rand
	mix   []int // rest of the current block of request kinds
	coldN int
	inN   int

	// The run's digest and exact counters: the values of this client's
	// first inline_io reply and the stats of its first hot_kernel reply in
	// the timed phase (reset after warm-up).
	digest *digest
	exact  *exact
}

func (e *serveEnv) newClient(id int) *client {
	return &client{e: e, id: id, rng: rand.New(rand.NewSource(e.seed*7919 + int64(id)))}
}

// request is one drawn request: its kind and body, the server-generated
// inputs of a cold_shape request, the case behind an inline_io request.
type request struct {
	kind   int
	body   []byte
	cold   []inputDef
	inline *inlineCase
}

// next draws the client's next request.
func (c *client) next() request {
	if len(c.mix) == 0 {
		block := mixBlock
		c.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		c.mix = block[:]
	}
	kind := c.mix[0]
	c.mix = c.mix[1:]
	switch kind {
	case kindHot:
		return request{kind: kind, body: c.e.hotBody}
	case kindCold:
		defs := c.e.shape.coldInputs(c.e.perm, c.coldN*serveClients+c.id, c.e.seed)
		c.coldN++
		return request{kind: kind, body: coldBody(defs, true), cold: defs}
	default:
		ic := &c.e.inline[c.id][c.inN%inlinePool]
		c.inN++
		return request{kind: kind, body: ic.body, inline: ic}
	}
}

func hotBody(omitValues bool) []byte {
	body, _ := json.Marshal(serve.QueryRequest{Script: nmfkScript, OmitValues: omitValues, // strings cannot fail
		Inputs: map[string]serve.InputSpec{"X": {Dataset: "X"}, "U": {Dataset: "U"}, "V": {Dataset: "V"}}})
	return body
}

func coldBody(defs []inputDef, omitValues bool) []byte {
	req := serve.QueryRequest{Script: nmfkScript, OmitValues: omitValues, Inputs: map[string]serve.InputSpec{}}
	for _, d := range defs {
		req.Inputs[d.name] = randomSpecOf(d)
	}
	body, _ := json.Marshal(req) // plain numbers and strings cannot fail
	return body
}

// post sends one query body as tenant id and returns the status and the raw
// reply, fully read.
func (e *serveEnv) post(id int, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, e.ts.URL+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-FuseMe-Token", e.tokens[id])
	resp, err := e.clients[id].Do(req)
	if err != nil {
		return 0, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, raw, err
}

// do sends one request and checks its reply. The latency sample ends when
// the whole body has been read; decoding and checking are the load
// generator's own cost and are not in it.
func (c *client) do() (serveSample, error) {
	rq := c.next()
	s := serveSample{kind: rq.kind}
	start := time.Now()
	status, raw, err := c.e.post(c.id, rq.body)
	s.lat = time.Since(start)
	if err != nil {
		return s, err
	}
	if status != http.StatusOK {
		s.rejected = status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
		return s, fmt.Errorf("%s: HTTP %d: %s", kindNames[rq.kind], status, bytes.TrimSpace(raw))
	}
	var qr serve.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		return s, fmt.Errorf("%s: decoding reply: %w", kindNames[rq.kind], err)
	}
	s.queueMS, s.execMS = qr.QueueMillis, qr.ExecMillis
	if rq.kind == kindInline {
		if c.digest == nil {
			c.digest = &digest{}
			c.digest.add(qr.Outputs["Y"].Values)
		}
		return s, compareDense("Y", qr.Outputs["Y"].Values, rq.inline.want)
	}
	if rq.kind == kindHot && c.exact == nil {
		x := exactOfPublic(qr.Stats)
		c.exact = &x
	}
	rows, cols, nnz := c.e.shape.n, c.e.shape.n, c.e.xNNZ
	if rq.kind == kindCold {
		rows, cols = rq.cold[0].rows, rq.cold[0].cols
		nnz = rows * cols
	}
	if o := qr.Outputs["O"]; o.Rows != rows || o.Cols != cols || o.NNZ == 0 || o.NNZ > nnz {
		return s, fmt.Errorf("%s: output O is %dx%d with %d non-zeros, want %dx%d with the pattern of X",
			kindNames[rq.kind], o.Rows, o.Cols, o.NNZ, rows, cols)
	}
	return s, nil
}

// checkServeTwin sends one request of each kind to a ⅛-scale server with
// values returned and compares them with the reference evaluator.
func checkServeTwin(scale float64, seed int64) error {
	tscale, tbs := twinOf(scale, serveBlockSize)
	e, err := setupServe(tscale, tbs, seed)
	if err != nil {
		return err
	}
	defer e.close()
	outputs := func(body []byte) (map[string]serve.OutputMatrix, error) {
		status, raw, err := e.post(0, body)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(raw))
		}
		var qr serve.QueryResponse
		err = json.Unmarshal(raw, &qr)
		return qr.Outputs, err
	}
	check := func(kind int, body []byte, defs []inputDef) error {
		want, err := reference(nmfkScript, defs, tbs)
		if err != nil {
			return err
		}
		got, err := outputs(body)
		if err != nil {
			return fmt.Errorf("twin (%s): %w", kindNames[kind], err)
		}
		return compareOutputs(kindNames[kind], want, func(name string) ([]float64, bool) {
			o, ok := got[name]
			return o.Values, ok
		})
	}
	if err := check(kindHot, hotBody(false), e.shape.datasets(seed)); err != nil {
		return err
	}
	cold := e.shape.coldInputs(e.perm, 0, seed)
	if err := check(kindCold, coldBody(cold, false), cold); err != nil {
		return err
	}
	// inline_io carries its own expected values at any scale.
	ic := e.inline[0][0]
	got, err := outputs(ic.body)
	if err != nil {
		return fmt.Errorf("twin (inline_io): %w", err)
	}
	if err := compareDense("Y", got["Y"].Values, ic.want); err != nil {
		return fmt.Errorf("twin (inline_io): %w", err)
	}
	return nil
}

// closedLoop runs every client until the deadline (or ops requests each) and
// returns the samples of the requests that got a reply (served or refused),
// the attempted/failed counts, wall and allocs.
func (e *serveEnv) closedLoop(clients []*client, ops int, budget time.Duration) ([]serveSample, loopResult) {
	type tally struct {
		samples           []serveSample
		attempted, failed int
	}
	tallies := make([]tally, len(clients))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c *client, t *tally) {
			defer wg.Done()
			for i := 0; ; i++ {
				if ops > 0 {
					if i >= ops {
						break
					}
				} else if time.Since(start) >= budget {
					break
				}
				s, err := c.do()
				t.attempted++
				if err != nil {
					t.failed++
					fmt.Printf("client %d request %d failed: %v\n", c.id, i, err)
					if !s.rejected {
						continue
					}
				}
				t.samples = append(t.samples, s)
			}
		}(c, &tallies[i])
	}
	wg.Wait()
	var lr loopResult
	lr.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	lr.allocB = m1.TotalAlloc - m0.TotalAlloc
	lr.numGC = m1.NumGC - m0.NumGC
	var all []serveSample
	for _, t := range tallies {
		lr.attempted += t.attempted
		lr.failed += t.failed
		for _, s := range t.samples {
			all = append(all, s)
			if !s.rejected {
				lr.lat = append(lr.lat, s.lat)
			}
		}
	}
	return all, lr
}

// slicedLoop is closedLoop for window; with a reference kernel it is cut into
// closed loops of refSlice, each bracketed by two runs of the kernel (a fixed
// count of ops is one slice).
func (e *serveEnv) slicedLoop(clients []*client, ops int, window time.Duration, k *refKernel) ([]serveSample, loopResult) {
	if k == nil {
		return e.closedLoop(clients, ops, window)
	}
	var samples []serveSample
	var total loopResult
	total.ref.open(k)
	for start := time.Now(); ; {
		s, lr := e.closedLoop(clients, ops, min(refSlice, window))
		total.ref.close(lr.lat, lr.wall)
		total.add(lr)
		samples = append(samples, s...)
		if ops > 0 || time.Since(start) >= window {
			return samples, total
		}
	}
}

// warmServe sends the warm-up requests and returns the clients, whose
// request streams continue into the timed phase.
func (e *serveEnv) warmServe() ([]*client, error) {
	clients := make([]*client, serveClients)
	for c := range clients {
		clients[c] = e.newClient(c)
	}
	_, lr := e.closedLoop(clients, serveWarm/serveClients, 0)
	if lr.failed > 0 {
		return nil, fmt.Errorf("%d of %d warm-up requests failed", lr.failed, lr.attempted)
	}
	for _, c := range clients {
		c.digest, c.exact = nil, nil
	}
	return clients, nil
}

// served is one round of the serve workload: the server (still up), how
// long its set-up took, and what the closed-loop window on it measured.
type served struct {
	env     *serveEnv
	setup   time.Duration
	samples []serveSample
	lr      loopResult
}

// serveRound sets a server up (twin check, datasets, warm-up requests) and
// measures one closed-loop window on it. The caller closes the server.
func serveRound(o options, r *result, window time.Duration, k *refKernel) (served, error) {
	start := time.Now()
	if err := checkServeTwin(o.scale, o.seed); err != nil {
		r.fail("%v", err)
	}
	e, err := setupServe(o.scale, serveBlockSize, o.seed)
	if err != nil {
		return served{}, err
	}
	clients, err := e.warmServe()
	if err != nil {
		e.close()
		return served{}, err
	}
	sv := served{env: e, setup: time.Since(start)}
	sv.samples, sv.lr = e.slicedLoop(clients, o.ops, window, k)
	if c := clients[0]; c.digest != nil && c.exact != nil {
		r.sameAcrossRounds(*c.digest, *c.exact)
	}
	return sv, nil
}

func runServe(o options) (*result, error) {
	r := &result{correct: true, values: map[string]float64{}}
	if !o.trace {
		err := runRounds(o, r, func(window time.Duration, k *refKernel) (time.Duration, loopResult, error) {
			sv, err := serveRound(o, r, window, k)
			if err != nil {
				return 0, loopResult{}, err
			}
			sv.env.close()
			return sv.setup, sv.lr, nil
		})
		r.finish()
		return r, err
	}

	sv, err := serveRound(o, r, o.budget()/2, nil)
	if err != nil {
		return nil, err
	}
	defer sv.env.close()
	r.attempted, r.failed, r.samples = sv.lr.attempted, sv.lr.failed, len(sv.lr.lat)
	if len(sv.lr.lat) == 0 {
		r.fail("no request succeeded")
		r.finish()
		return r, nil
	}
	serveValues(r.values, sv.samples, sv.env.srv.PlanCacheStats())
	if err := sv.env.shadow(o, r, median(seconds(sv.lr.lat))); err != nil {
		return nil, err
	}
	r.finish()
	return r, nil
}

// serveValues derives the serve-layer metrics from the replies.
func serveValues(v map[string]float64, samples []serveSample, pc fuseme.PlanCacheStats) {
	var all, queue, exec, self []float64
	var byKind [numKinds][]float64
	rejected := 0
	for _, s := range samples {
		if s.rejected {
			rejected++
			continue
		}
		lat := s.lat.Seconds()
		all = append(all, lat)
		queue = append(queue, s.queueMS/1e3)
		exec = append(exec, s.execMS/1e3)
		self = append(self, lat-s.queueMS/1e3-s.execMS/1e3)
		byKind[s.kind] = append(byKind[s.kind], lat)
	}
	v["serve.queue_s_p50"] = median(queue)
	v["serve.exec_s_p50"] = median(exec)
	v["serve.http_self_s_p50"] = median(self)
	v["serve.op_s_p99"] = quantile(all, 0.99)
	for k, name := range kindNames {
		v["serve."+name+"_s_p50"] = median(byKind[k])
	}
	v["serve.rejected"] = float64(rejected)
	if pc.Hits+pc.Misses > 0 {
		v["plancache.hit_ratio"] = float64(pc.Hits) / float64(pc.Hits+pc.Misses)
	}
	v["plancache.entries"] = float64(pc.Entries)
}

// shadow replays client 0's request stream by hand, single-threaded, on a
// decorated cluster with a plan cache of the server's default size: the
// layer breakdown of what the server does inside exec_ms. It cannot reach
// inside the server, so HTTP, JSON and admission show up in
// session.residual_s (the HTTP op_s_p50 minus the shadow's layer spans).
func (e *serveEnv) shadow(o options, r *result, httpP50 float64) error {
	tr := newTracer()
	w, err := newWalker(tr, e.shape.bs, nil)
	if err != nil {
		return err
	}
	defer w.close()
	w.cache = plancache.New(0)
	datasets := map[string]*block.Matrix{}
	for _, d := range e.shape.datasets(e.seed) {
		datasets[d.name] = d.block(e.shape.bs)
	}
	c := e.newClient(0)
	op := func(int) error {
		rq := c.next()
		script := nmfkScript
		switch rq.kind {
		case kindHot:
			w.inputs = datasets
		case kindCold:
			w.inputs = map[string]*block.Matrix{}
			for _, d := range rq.cold {
				w.inputs[d.name] = d.block(e.shape.bs)
			}
		default:
			script = inlineScript
			a := matrix.NewDenseData(serveInline, serveInline, rq.inline.values)
			w.inputs = map[string]*block.Matrix{"A": block.FromMat(a, e.shape.bs)}
		}
		out, err := w.query(script)
		if err != nil {
			return err
		}
		if rq.kind == kindInline {
			return compareDense("Y", matrix.ToDense(out["Y"].ToMat()).Data, rq.inline.want)
		}
		return nil
	}
	warm := timedLoop(serveWarm/serveClients, 0, nil, op)
	if warm.failed > 0 {
		return fmt.Errorf("%d shadow warm-up ops failed", warm.failed)
	}
	firstOp := w.ops + 1
	lr := timedLoop(o.ops, o.budget()/4, nil, op)
	r.attempted += lr.attempted
	r.failed += lr.failed
	spans := timedSpans(tr.spans, firstOp)
	layerValues(r.values, spans, assignLanes(spans), w.recs[firstOp-1:], false)
	r.values["session.residual_s"] = httpP50 - median(layerSums(spans))
	goValues(r.values, lr)
	probeValues(r.values, datasets, e.shape.bs)
	r.notes = append(r.notes, fmt.Sprintf("shadow phase: %d hand-walked ops of client 0's request stream", len(lr.lat)))
	return writeTrace(o, r, spans, len(lr.lat))
}
