package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"fuseme"
	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/lang"
	"fuseme/internal/matrix"
	"fuseme/internal/ref"
	"fuseme/internal/rt/remote"
)

// The benchmark cluster: two lanes, so the load fits a 2-core shared box.
const (
	benchNodes        = 2
	benchTasksPerNode = 1
	benchTaskMem      = 4 << 30
	benchNetBW        = 1e9
	benchCompBW       = 50e9
)

func publicClusterConfig(blockSize int, workers []string) fuseme.ClusterConfig {
	c := fuseme.ClusterConfig{
		Nodes:         benchNodes,
		TasksPerNode:  benchTasksPerNode,
		TaskMemBytes:  benchTaskMem,
		NetBandwidth:  benchNetBW,
		CompBandwidth: benchCompBW,
		BlockSize:     blockSize,
	}
	if len(workers) > 0 {
		c.Runtime, c.Workers = "tcp", workers
	}
	return c
}

// inputDef is one seeded input: dense when density is 0, sparse otherwise.
// lo == hi gives a constant matrix.
type inputDef struct {
	name       string
	rows, cols int
	density    float64
	lo, hi     float64
	seed       int64
}

func (d inputDef) public(bs int) *fuseme.Matrix {
	if d.density > 0 {
		return fuseme.NewRandomSparseMatrix(d.rows, d.cols, bs, d.density, d.lo, d.hi, d.seed)
	}
	return fuseme.NewRandomDenseMatrix(d.rows, d.cols, bs, d.lo, d.hi, d.seed)
}

// block generates the same matrix the public constructors do (they call
// these generators with the same arguments).
func (d inputDef) block(bs int) *block.Matrix {
	if d.density > 0 {
		return block.RandomSparse(d.rows, d.cols, bs, d.density, d.lo, d.hi, d.seed)
	}
	return block.RandomDense(d.rows, d.cols, bs, d.lo, d.hi, d.seed)
}

// dim scales a dimension, keeping it at least 2.
func dim(n int, scale float64) int {
	if v := int(math.Round(float64(n) * scale)); v > 2 {
		return v
	}
	return 2
}

// sparsity scales a density inversely with the dimensions, so a scaled-down
// input keeps the full-size input's non-zeros per row (GNMF divides by sums
// over rows and columns: an empty one would make the factors 0/0).
func sparsity(d, scale float64) float64 { return math.Min(0.5, d/scale) }

// batchSpec describes a workload whose op is one Session.Query.
type batchSpec struct {
	name      string
	tcp       bool
	blockSize int
	script    string
	warm      int
	// inputs returns the bound inputs at a scale, seeded from the run seed.
	inputs func(scale float64, seed int64) []inputDef
	// fresh, when set, returns the i-th per-op input (the AutoEncoder's
	// mini-batch). A ring of freshRing of them is generated during set-up.
	fresh func(scale float64, seed int64, i int) inputDef
	// rebind lists {output, input}: outputs re-bound as inputs after each op.
	rebind [][2]string
}

const freshRing = 16

const gnmfScript = `
U2 = U * (t(V) %*% X) / (t(V) %*% V %*% U)
V2 = V * (X %*% t(U)) / (V %*% (U %*% t(U)))
`

func gnmfInputs(scale float64, seed int64) []inputDef {
	users, items, k := dim(8000, scale), dim(4000, scale), 64
	return []inputDef{
		{name: "X", rows: users, cols: items, density: sparsity(0.01, scale), lo: 1, hi: 5, seed: seed*1000 + 1},
		{name: "U", rows: k, cols: items, lo: 0.1, hi: 0.9, seed: seed*1000 + 2},
		{name: "V", rows: users, cols: k, lo: 0.1, hi: 0.9, seed: seed*1000 + 3},
	}
}

// aeScript is the examples/autoencoder train step: forward, backward and
// the SGD update of all eight parameters in one query.
const aeScript = `
H1 = sigmoid(W1 %*% XT + b1)
H2 = sigmoid(W2 %*% H1 + b2)
H3 = sigmoid(W3 %*% H2 + b3)
Y = sigmoid(W4 %*% H3 + b4)
E = Y - XT
loss = sum(E ^ 2)
D4 = E * sigmoidGrad(Y)
D3 = (t(W4) %*% D4) * sigmoidGrad(H3)
D2 = (t(W3) %*% D3) * sigmoidGrad(H2)
D1 = (t(W2) %*% D2) * sigmoidGrad(H1)
W1n = W1 - lrm * (D1 %*% t(XT))
b1n = b1 - lrm * rowSums(D1)
W2n = W2 - lrm * (D2 %*% t(H1))
b2n = b2 - lrm * rowSums(D2)
W3n = W3 - lrm * (D3 %*% t(H2))
b3n = b3 - lrm * rowSums(D3)
W4n = W4 - lrm * (D4 %*% t(H3))
b4n = b4 - lrm * rowSums(D4)
`

func aeDims(scale float64) (features, h1, h2, batch int) {
	return dim(1024, scale), dim(256, scale), dim(64, scale), dim(256, scale)
}

func aeInputs(scale float64, seed int64) []inputDef {
	f, h1, h2, _ := aeDims(scale)
	s := seed * 1000
	return []inputDef{
		{name: "W1", rows: h1, cols: f, lo: -0.3, hi: 0.3, seed: s + 1},
		{name: "b1", rows: h1, cols: 1, lo: -0.1, hi: 0.1, seed: s + 2},
		{name: "W2", rows: h2, cols: h1, lo: -0.3, hi: 0.3, seed: s + 3},
		{name: "b2", rows: h2, cols: 1, lo: -0.1, hi: 0.1, seed: s + 4},
		{name: "W3", rows: h1, cols: h2, lo: -0.3, hi: 0.3, seed: s + 5},
		{name: "b3", rows: h1, cols: 1, lo: -0.1, hi: 0.1, seed: s + 6},
		{name: "W4", rows: f, cols: h1, lo: -0.3, hi: 0.3, seed: s + 7},
		{name: "b4", rows: f, cols: 1, lo: -0.1, hi: 0.1, seed: s + 8},
		{name: "lrm", rows: 1, cols: 1, lo: 0.01, hi: 0.01, seed: s + 9},
	}
}

func aeBatch(scale float64, seed int64, i int) inputDef {
	f, _, _, batch := aeDims(scale)
	return inputDef{name: "XT", rows: f, cols: batch, lo: 0, hi: 1, seed: seed*1000 + 100 + int64(i)}
}

var aeRebind = [][2]string{{"W1n", "W1"}, {"b1n", "b1"}, {"W2n", "W2"}, {"b2n", "b2"},
	{"W3n", "W3"}, {"b3n", "b3"}, {"W4n", "W4"}, {"b4n", "b4"}}

const nmfkScript = `O = X * log(U %*% t(V) + 1e-3)`

func nmfkInputs(scale float64, seed int64) []inputDef {
	n, k := dim(20000, scale), 64
	return []inputDef{
		{name: "X", rows: n, cols: n, density: sparsity(0.005, scale), lo: 1, hi: 5, seed: seed*1000 + 1},
		{name: "U", rows: n, cols: k, lo: 0.1, hi: 0.9, seed: seed*1000 + 2},
		{name: "V", rows: n, cols: k, lo: 0.1, hi: 0.9, seed: seed*1000 + 3},
	}
}

var gnmfRebind = [][2]string{{"U2", "U"}, {"V2", "V"}}

var batchSpecs = []batchSpec{
	{name: "gnmf_sim", blockSize: 256, script: gnmfScript, warm: 3, inputs: gnmfInputs, rebind: gnmfRebind},
	{name: "gnmf_tcp", tcp: true, blockSize: 256, script: gnmfScript, warm: 3, inputs: gnmfInputs, rebind: gnmfRebind},
	{name: "ae_sim", blockSize: 128, script: aeScript, warm: 5, inputs: aeInputs, fresh: aeBatch, rebind: aeRebind},
	{name: "ae_tcp", tcp: true, blockSize: 128, script: aeScript, warm: 5, inputs: aeInputs, fresh: aeBatch, rebind: aeRebind},
	{name: "nmfk_sim", blockSize: 256, script: nmfkScript, warm: 3, inputs: nmfkInputs},
}

// twinOf returns the ⅛-scale twin of a run: every scaled dimension at one
// eighth, blocks at a quarter so the twin still spans several blocks.
func twinOf(scale float64, blockSize int) (float64, int) {
	bs := blockSize / 4
	if bs < 4 {
		bs = 4
	}
	return scale / 8, bs
}

// loopbackWorkers starts n in-process workers on ephemeral loopback ports.
func loopbackWorkers(n int) ([]*remote.Worker, []string, error) {
	var ws []*remote.Worker
	var addrs []string
	for i := 0; i < n; i++ {
		w, err := remote.NewWorker("127.0.0.1:0")
		if err != nil {
			stopWorkers(ws)
			return nil, nil, err
		}
		ws = append(ws, w)
		addrs = append(addrs, w.Addr())
	}
	return ws, addrs, nil
}

func stopWorkers(ws []*remote.Worker) {
	for _, w := range ws {
		w.Close() // only closes the listener and connections
	}
	for _, w := range ws {
		w.Wait()
	}
}

// batchEnv is one set-up system for a batch workload: workers (TCP), the
// public-API session, and in a traced run the hand-walk on its own runtime
// over the same workers. Both paths start from identical inputs.
type batchEnv struct {
	spec    *batchSpec
	workers []*remote.Worker
	sess    *fuseme.Session
	defs    []inputDef
	walk    *walker

	// The ring of fresh per-op inputs, in public form and (traced run) in
	// the hand-walk's form.
	freshName string
	ring      []*fuseme.Matrix
	walkRing  []*block.Matrix
}

func (sp *batchSpec) setup(scale float64, bs int, seed int64, tr *tracer) (*batchEnv, error) {
	e := &batchEnv{spec: sp, defs: sp.inputs(scale, seed)}
	var addrs []string
	if sp.tcp {
		var err error
		if e.workers, addrs, err = loopbackWorkers(benchNodes); err != nil {
			return nil, err
		}
	}
	sess, err := fuseme.NewSession(publicClusterConfig(bs, addrs))
	if err != nil {
		e.close()
		return nil, err
	}
	e.sess = sess
	for _, d := range e.defs {
		sess.Bind(d.name, d.public(bs))
	}
	if tr != nil {
		if e.walk, err = newWalker(tr, bs, addrs); err != nil {
			e.close()
			return nil, err
		}
		for _, d := range e.defs {
			e.walk.inputs[d.name] = d.block(bs)
		}
	}
	if sp.fresh != nil {
		for i := 0; i < freshRing; i++ {
			d := sp.fresh(scale, seed, i)
			e.freshName = d.name
			e.ring = append(e.ring, d.public(bs))
			if tr != nil {
				e.walkRing = append(e.walkRing, d.block(bs))
			}
		}
	}
	return e, nil
}

func (e *batchEnv) close() {
	if e.walk != nil {
		e.walk.close()
	}
	if e.sess != nil {
		e.sess.Close()
	}
	stopWorkers(e.workers)
}

// sessionOp is one untraced op: Session.Query through the public API, then
// re-bind the iterated outputs.
func (e *batchEnv) sessionOp(i int) (map[string]*fuseme.Matrix, error) {
	if e.ring != nil {
		e.sess.Bind(e.freshName, e.ring[i%freshRing])
	}
	out, err := e.sess.Query(e.spec.script)
	if err != nil {
		return nil, err
	}
	for _, r := range e.spec.rebind {
		e.sess.Bind(r[1], out[r[0]])
	}
	return out, nil
}

// walkOp is the same op made by hand on the decorated runtime.
func (e *batchEnv) walkOp(i int) (map[string]*block.Matrix, error) {
	if e.walkRing != nil {
		e.walk.inputs[e.freshName] = e.walkRing[i%freshRing]
	}
	out, err := e.walk.query(e.spec.script)
	if err != nil {
		return nil, err
	}
	for _, r := range e.spec.rebind {
		e.walk.inputs[r[1]] = out[r[0]]
	}
	return out, nil
}

// reference evaluates script on the given seeded inputs with the single-node
// reference evaluator and returns every output as row-major values.
func reference(script string, defs []inputDef, bs int) (map[string][]float64, error) {
	decls := map[string]lang.InputDecl{}
	in := map[string]matrix.Mat{}
	for _, d := range defs {
		b := d.block(bs)
		decls[d.name] = lang.InputDecl{Rows: b.Rows, Cols: b.Cols, Sparsity: math.Max(b.Density(), 1e-9)}
		in[d.name] = b.ToMat()
	}
	g, err := lang.Parse(script, decls)
	if err != nil {
		return nil, err
	}
	out, err := ref.Evaluate(g, in)
	if err != nil {
		return nil, err
	}
	vals := make(map[string][]float64, len(out))
	for name, m := range out {
		vals[name] = matrix.ToDense(m).Data
	}
	return vals, nil
}

// compareOutputs checks every reference output against got(name).
func compareOutputs(path string, want map[string][]float64, got func(name string) ([]float64, bool)) error {
	for name, w := range want {
		g, ok := got(name)
		if !ok {
			return fmt.Errorf("twin (%s): output %q missing", path, name)
		}
		if err := compareDense(name, g, w); err != nil {
			return fmt.Errorf("twin (%s): %w", path, err)
		}
	}
	return nil
}

// checkTwin runs one op of the ⅛-scale twin through the identical path
// (session, and hand-walk when traced) and compares every output with the
// single-node reference evaluator.
func (sp *batchSpec) checkTwin(scale float64, seed int64, tr *tracer) error {
	tscale, tbs := twinOf(scale, sp.blockSize)
	e, err := sp.setup(tscale, tbs, seed, tr)
	if err != nil {
		return err
	}
	defer e.close()
	defs := e.defs
	if sp.fresh != nil {
		defs = append(defs[:len(defs):len(defs)], sp.fresh(tscale, seed, 0))
	}
	want, err := reference(sp.script, defs, tbs)
	if err != nil {
		return err
	}
	got, err := e.sessionOp(0)
	if err != nil {
		return fmt.Errorf("twin (session): %w", err)
	}
	err = compareOutputs("session", want, func(name string) ([]float64, bool) {
		m, ok := got[name]
		if !ok {
			return nil, false
		}
		return m.Dense(), true
	})
	if err != nil || tr == nil {
		return err
	}
	hw, err := e.walkOp(0)
	if err != nil {
		return fmt.Errorf("twin (hand-walk): %w", err)
	}
	return compareOutputs("hand-walk", want, func(name string) ([]float64, bool) {
		b, ok := hw[name]
		if !ok {
			return nil, false
		}
		return matrix.ToDense(b.ToMat()).Data, true
	})
}

// compareDense checks got against want to a relative 1e-9 of want's largest
// magnitude.
func compareDense(name string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("output %q has %d values, reference %d", name, len(got), len(want))
	}
	maxAbs := 1.0
	for _, v := range want {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); !(d <= 1e-9*maxAbs) {
			return fmt.Errorf("output %q differs from the reference at %d: %g vs %g", name, i, got[i], want[i])
		}
	}
	return nil
}

// digest is the sum and sum of squares of a set of outputs, folded in output
// name order so it does not depend on map iteration.
type digest struct{ sum, sumSq float64 }

func (d *digest) add(vals []float64) {
	for _, v := range vals {
		d.sum += v
		d.sumSq += v * v
	}
}

func (d digest) finite() bool {
	return !math.IsNaN(d.sum) && !math.IsInf(d.sum, 0) && !math.IsNaN(d.sumSq) && !math.IsInf(d.sumSq, 0)
}

// agrees reports whether two digests match to a relative 1e-12.
func (d digest) agrees(o digest) bool {
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Max(math.Abs(a), math.Abs(b))) }
	return near(d.sum, o.sum) && near(d.sumSq, o.sumSq)
}

func (d digest) String() string { return fmt.Sprintf("sum=%.15g sumsq=%.15g", d.sum, d.sumSq) }

// The digest of a set of outputs is computed by the engine itself, one
// sum(D) and one sum(D ^ 2) per output: the public API has no other way to
// read a 20000x20000 sparse result without densifying it, and running the
// same query on both paths folds the values in the same order, so the traced
// and untraced digests are comparable to the last bits.

// digestScript returns the digest query for n outputs bound as D0..Dn-1.
func digestScript(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "s%d = sum(D%d)\nq%d = sum(D%d ^ 2)\n", i, i, i, i)
	}
	return b.String()
}

func sortedNames[M any](out map[string]M) []string {
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// digestPublic digests a session op's outputs through the session.
func (e *batchEnv) digestPublic(out map[string]*fuseme.Matrix) (digest, error) {
	names := sortedNames(out)
	for i, n := range names {
		e.sess.Bind(fmt.Sprintf("D%d", i), out[n])
	}
	res, err := e.sess.Query(digestScript(len(names)))
	var d digest
	for i := range names {
		e.sess.Unbind(fmt.Sprintf("D%d", i))
		if err == nil {
			d.sum += res[fmt.Sprintf("s%d", i)].At(0, 0)
			d.sumSq += res[fmt.Sprintf("q%d", i)].At(0, 0)
		}
	}
	return d, err
}

// digestWalk digests a hand-walked op's outputs through the hand-walk.
func (e *batchEnv) digestWalk(out map[string]*block.Matrix) (digest, error) {
	names := sortedNames(out)
	bound := e.walk.inputs
	e.walk.inputs = map[string]*block.Matrix{}
	for i, n := range names {
		e.walk.inputs[fmt.Sprintf("D%d", i)] = out[n]
	}
	res, err := e.walk.query(digestScript(len(names)))
	e.walk.inputs = bound
	var d digest
	if err != nil {
		return d, err
	}
	for i := range names {
		d.sum += res[fmt.Sprintf("s%d", i)].At(0, 0)
		d.sumSq += res[fmt.Sprintf("q%d", i)].At(0, 0)
	}
	return d, nil
}

// exact is the set of counters that must repeat exactly between the traced
// and untraced run of one seed.
type exact struct {
	stages, tasks int
	commBytes     int64
	flops         int64
}

func exactOfPublic(s fuseme.Stats) exact {
	return exact{s.Stages, s.Tasks, s.TotalCommBytes() + s.ExtraWireBytes, s.Flops}
}

func exactOfInternal(s cluster.Stats) exact {
	return exact{s.Stages, s.Tasks, s.TotalCommBytes() + s.ExtraWireBytes, s.Flops}
}

func (x exact) String() string {
	return fmt.Sprintf("stages=%d tasks=%d comm_bytes=%d charged_flops=%d", x.stages, x.tasks, x.commBytes, x.flops)
}

// loopResult is what a timed loop measured: per-op latencies of the ops that
// succeeded, the attempted and failed counts, the loop's wall time (without
// the reference kernel's runs), its TotalAlloc and its GC cycles, and, when
// the loop ran the reference kernel, the same times in reference seconds.
type loopResult struct {
	lat       []time.Duration
	attempted int
	failed    int
	wall      time.Duration
	allocB    uint64
	numGC     uint32
	ref       refSlices
}

const minTimedOps = 5

// timedLoop runs op until budget has passed and at least minTimedOps ran,
// or exactly ops times when ops > 0, timing each call. With a reference
// kernel it cuts the loop into slices of about refSlice, each bracketed by
// two runs of the kernel.
func timedLoop(ops int, budget time.Duration, k *refKernel, op func(i int) error) loopResult {
	var r loopResult
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if k != nil {
		r.ref.open(k)
	}
	sliceStart, sliceFirst := time.Now(), 0
	endSlice := func() {
		wall := time.Since(sliceStart)
		r.wall += wall
		if k != nil {
			r.ref.close(r.lat[sliceFirst:], wall)
		}
		sliceStart, sliceFirst = time.Now(), len(r.lat)
	}
	for i := 0; ; i++ {
		if ops > 0 {
			if i >= ops {
				break
			}
		} else if i >= minTimedOps && time.Since(start) >= budget {
			break
		}
		t := time.Now()
		err := op(i)
		d := time.Since(t)
		r.attempted++
		if err != nil {
			r.failed++
			fmt.Printf("op %d failed: %v\n", i, err)
			continue
		}
		r.lat = append(r.lat, d)
		if k != nil && time.Since(sliceStart) >= refSlice {
			endSlice()
		}
	}
	if k == nil || len(r.lat) > sliceFirst {
		endSlice()
	}
	runtime.ReadMemStats(&m1)
	r.allocB = m1.TotalAlloc - m0.TotalAlloc
	r.numGC = m1.NumGC - m0.NumGC
	return r
}
