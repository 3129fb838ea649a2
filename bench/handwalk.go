package main

import (
	"fmt"

	"fuseme/internal/block"
	"fuseme/internal/cfg"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/lang"
	"fuseme/internal/opt"
	"fuseme/internal/plancache"
	"fuseme/internal/rt"
	"fuseme/internal/rt/remote"
)

// The traced run replaces Session.Query with the same calls made by hand, so
// spans can be recorded from this package around each layer's public
// functions. The pinned list of internal functions it calls is in README.md;
// a refactor that moves one of them must re-pin it in a [benchmark] change.

// internalClusterConfig is fuseme.ClusterConfig.internal() for the benchmark
// cluster with every session override at its default (the session fields are
// unexported, hence the copy; the exact-counter comparison against the
// Session path fails the run if the two drift apart).
func internalClusterConfig(blockSize int) cluster.Config {
	return cluster.Config{
		Nodes:          benchNodes,
		TasksPerNode:   benchTasksPerNode,
		TaskMemBytes:   benchTaskMem,
		NetBandwidth:   benchNetBW,
		CompBandwidth:  benchCompBW,
		BlockSize:      blockSize,
		TaskOverhead:   0.005,
		MaxTaskRetries: 2,
	}
}

// opRecord is what the hand-walk keeps per op besides its spans.
type opRecord struct {
	stats       cluster.Stats
	genCalls    int64
	searchCalls int64
}

// walker replays Session.Query by hand on a decorated runtime.
type walker struct {
	tr     *tracer
	rec    *stageRecorder
	rtm    rt.Runtime
	inputs map[string]*block.Matrix
	cache  *plancache.Cache // nil = compile every query, like a plain session
	ops    int
	recs   []opRecord
}

// newWalker builds the decorated runtime: the in-process cluster, or a
// coordinator over the given loopback workers.
func newWalker(tr *tracer, blockSize int, workers []string) (*walker, error) {
	rec := &stageRecorder{tr: tr}
	w := &walker{tr: tr, rec: rec, inputs: map[string]*block.Matrix{}}
	cc := internalClusterConfig(blockSize)
	if len(workers) == 0 {
		cl, err := cluster.New(cc)
		if err != nil {
			return nil, err
		}
		w.rtm = &tracedSim{Cluster: cl, rec: rec}
		return w, nil
	}
	co, err := remote.NewCoordinatorConfig(cc, workers, remote.DefaultConfig())
	if err != nil {
		return nil, err
	}
	w.rtm = &tracedTCP{Coordinator: co, rec: rec}
	return w, nil
}

func (w *walker) close() error { return w.rtm.Close() }

// query is Session.Query made by hand: decls from the bound inputs, parse,
// (plan-cache lookup,) compile, execute, rename outputs.
func (w *walker) query(script string) (map[string]*block.Matrix, error) {
	w.ops++
	op := w.ops
	opSpan := w.tr.begin(fmt.Sprintf("op %d", op), catOp, op, 0)
	defer w.tr.end(opSpan)
	var rec opRecord // recs[op-1], also when the op fails
	defer func() { w.recs = append(w.recs, rec) }()

	decls := make(map[string]lang.InputDecl, len(w.inputs))
	for name, b := range w.inputs {
		d := b.Density()
		if d <= 0 {
			d = 1e-9
		}
		if d > 1 {
			d = 1
		}
		decls[name] = lang.InputDecl{Rows: b.Rows, Cols: b.Cols, Sparsity: d}
	}

	id := w.tr.begin("lang.Parse", catParse, op, opSpan)
	g, err := lang.Parse(script, decls)
	w.tr.end(id)
	if err != nil {
		return nil, err
	}

	var pp *core.PhysPlan
	var hit plancache.Hit
	var canon plancache.Canon
	var key string
	if w.cache != nil {
		id = w.tr.begin("lookup", catLookup, op, opSpan)
		canon = plancache.Canonicalize(g)
		key = canon.Key + "|bench"
		var ok bool
		if hit, ok = w.cache.Lookup(key, canon); ok {
			pp = hit.PP
		}
		w.tr.end(id)
	}
	if pp == nil {
		gen0, search0 := cfg.GenerateCalls(), opt.SearchCalls()
		id = w.tr.begin("core.Compile", catCompile, op, opSpan)
		pp, err = core.FuseME{}.Compile(g, w.rtm.Config())
		w.tr.end(id)
		if err != nil {
			return nil, err
		}
		rec.genCalls, rec.searchCalls = cfg.GenerateCalls()-gen0, opt.SearchCalls()-search0
		if w.cache != nil {
			id = w.tr.begin("insert", catLookup, op, opSpan)
			w.cache.Insert(key, canon, pp)
			w.tr.end(id)
		}
	}

	needed := make(map[string]*block.Matrix, len(w.inputs))
	for _, in := range pp.Graph.InputNodes() {
		bound := in.Name
		if n, ok := hit.InputNames[in.Name]; ok {
			bound = n
		}
		b, ok := w.inputs[bound]
		if !ok {
			return nil, fmt.Errorf("input %q is not bound", bound)
		}
		needed[in.Name] = b
	}
	w.rtm.ResetStats()
	id = w.tr.begin("core.Execute", catExecute, op, opSpan)
	w.rec.op, w.rec.parent = op, id
	out, err := core.Execute(pp, w.rtm, needed)
	w.tr.end(id)
	rec.stats = w.rtm.Stats()
	if err != nil {
		return nil, err
	}
	res := make(map[string]*block.Matrix, len(out))
	for name, b := range out {
		if n, ok := hit.OutputNames[name]; ok {
			name = n
		}
		res[name] = b
	}
	return res, nil
}
