package exec

import (
	"fmt"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/dag"
	"fuseme/internal/fusion"
	"fuseme/internal/matrix"
	"fuseme/internal/obs"
	"fuseme/internal/rt"
	"fuseme/internal/rt/spec"
)

// runTask wraps a task body, converting evaluator failures (raised as
// execPanic) into errors.
func runTask(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if ep, ok := r.(execPanic); ok {
				err = ep.err
				return
			}
			panic(r)
		}
	}()
	return fn()
}

// Run executes the operator on the runtime — the in-process simulated
// cluster or a remote coordinator — reading its inputs from bind, and returns
// one matrix per output in Roots' order. Every stage goes through dispatch;
// o receives spans, metrics and one flight record per stage (nil disables
// all instrumentation).
func (lo *Operator) Run(rtm rt.Runtime, bind Bindings, o *obs.Obs) ([]*block.Matrix, error) {
	bs := rtm.Config().BlockSize
	if lowered := lo.Stages[0].Spec.BlockSize; lowered != bs {
		return nil, fmt.Errorf("exec: operator lowered for block size %d, runtime uses %d", lowered, bs)
	}
	if err := lo.checkBindings(bind, bs); err != nil {
		return nil, err
	}
	final := &resultSink{}
	aggs := make([]*aggSink, len(lo.outs))
	results := make([]*block.Matrix, len(lo.outs))
	for i, pc := range lo.outs {
		if pc.agg != nil {
			aggs[i] = &aggSink{agg: pc.agg.Agg, out: block.New(pc.agg.Rows, pc.agg.Cols, bs)}
			results[i] = aggs[i].out
		} else { // only a single-output operator emits final blocks
			final.out = block.New(pc.root.Rows, pc.root.Cols, bs)
			results[i] = final.out
		}
	}
	src := bindSource{bind: bind}
	if len(lo.Stages) > 1 {
		src.partials = &mmPartialSink{blocks: make(map[block.Key]matrix.Mat)}
	}
	// Final blocks land in the result sink, task aggregates fold into their
	// output's aggregation sink, and partial main-multiplication blocks
	// accumulate in the shuffle sink.
	route := func(kind uint8, bi, bj int, blk matrix.Mat) {
		switch outKind(kind) {
		case spec.OutFinal:
			final.put(bi, bj, blk)
		case spec.OutAgg:
			aggs[aggOutput(kind)].combine(bi, bj, blk)
		case spec.OutPartial:
			src.partials.add(bi, bj, blk)
		}
	}
	for _, st := range lo.bound(rtm, bind) {
		if err := dispatch(rtm, o, lo.pred, st, src, route); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// checkBindings checks the bound inputs against the plans: every input bound,
// shaped as its node declares, and blocked at the runtime's block size.
func (lo *Operator) checkBindings(bind Bindings, bs int) error {
	for _, in := range lo.inputs {
		m, ok := bind[in.ID]
		if !ok {
			return fmt.Errorf("exec: no binding for input %q (node %d)", in.Name, in.ID)
		}
		if m.Rows != in.Rows || m.Cols != in.Cols {
			return fmt.Errorf("exec: binding for %q is %dx%d, node declares %dx%d",
				in.Name, m.Rows, m.Cols, in.Rows, in.Cols)
		}
		if m.BlockSize != bs {
			return fmt.Errorf("exec: binding for %q has block size %d, cluster uses %d",
				in.Name, m.BlockSize, bs)
		}
	}
	return nil
}

// bound returns the stages as this execution runs them. Two fields depend on
// the bound data rather than the plan: the input epochs, when the runtime
// caches blocks, and the i/j ranges of a balanced operator, which follow the
// non-zeros of the bound driver. Without either, the lowered stages run as
// they are; otherwise each runs as a copy with them filled in.
func (lo *Operator) bound(rtm rt.Runtime, bind Bindings) []*Stage {
	var epochs []spec.NodeEpoch // the cache keys' version component, in node-ID order
	if rtm.Config().CacheBytes > 0 {
		for _, in := range lo.inputs {
			epochs = append(epochs, spec.NodeEpoch{Node: in.ID, Epoch: bind[in.ID].Epoch()})
		}
	}
	var rowW, colW []int64
	if lo.balance {
		rowW, colW = driverWeights(lo.outs[0], bind)
	}
	if epochs == nil && rowW == nil {
		return lo.Stages
	}
	out := make([]*Stage, len(lo.Stages))
	for i, st := range lo.Stages {
		sp := st.Spec
		sp.Epochs = epochs
		if rowW != nil {
			sp.IRanges = weightedRanges(rowW, len(sp.IRanges))
			sp.JRanges = weightedRanges(colW, len(sp.JRanges))
			sp.NumTasks = len(sp.IRanges) * len(sp.JRanges) * max(len(sp.KRanges), 1)
		}
		out[i] = newStage(sp, st.outs)
	}
	return out
}

// dispatch hands one stage to the runtime, and is the one place an rt.Stage
// is built: the closure runs runStageTask in-process; descriptor-capable
// runtimes ship the spec to workers and feed results back through Collect.
// Both paths route results through a task-index-ordered stage reducer, so
// floating-point results fold in the same order whatever order tasks complete
// in. Both are wrapped in the operator's observability (spans, metrics,
// calibration measurement) when enabled.
func dispatch(rtm rt.Runtime, o *obs.Obs, pred obs.FlightRecord, st *Stage, src blockSource, route emitFn) error {
	sp := &st.Spec
	cached := len(sp.Epochs) > 0
	var gen uint64
	if cached {
		gen = rtm.StageCacheGen()
	}
	red := newStageReducer(sp.NumTasks, route)
	return runObservedStage(rtm, o, pred, &rt.Stage{
		Name:     sp.Name,
		NumTasks: sp.NumTasks,
		Fn: func(task *cluster.Task) error {
			var cc *CacheCtx
			if cached {
				if cache := rtm.TaskCache(task.ID); cache != nil {
					cc = &CacheCtx{Cache: cache, Gen: gen}
				}
			}
			red.reset(task.ID)
			if err := runStageTask(st, task.ID, task, src, red.emitFor(task.ID), cc); err != nil {
				return err
			}
			red.complete(task.ID)
			return nil
		},
		Spec:  sp,
		Fetch: src.fetch,
		Collect: func(taskID int, blocks []spec.OutBlock) error {
			red.reset(taskID)
			emit := red.emitFor(taskID)
			for _, ob := range blocks {
				blk, err := spec.DecodeBlock(ob.Data)
				if err != nil {
					return fmt.Errorf("exec: decoding task %d result block (%d,%d): %w", taskID, ob.BI, ob.BJ, err)
				}
				emit(ob.Kind, ob.BI, ob.BJ, blk)
			}
			red.complete(taskID)
			return nil
		},
	})
}

// driverWeights derives per-block-row and per-block-column non-zero counts
// of the plan's sparse driver, resolved to the underlying bound input (the
// driver may be a pattern operator like X != 0 over an input X). Returns
// nils when no bound input backs the driver.
func driverWeights(pc *planCtx, bind Bindings) (rowW, colW []int64) {
	src := driverInput(pc.plan, pc.mask.Driver)
	if src == nil {
		return nil, nil
	}
	m, ok := bind[src.ID]
	if !ok {
		return nil, nil
	}
	rowW = make([]int64, m.BlockRows())
	colW = make([]int64, m.BlockCols())
	m.ForEach(func(k block.Key, blk matrix.Mat) {
		n := int64(blk.NNZ())
		rowW[k.Row] += n
		colW[k.Col] += n
	})
	return rowW, colW
}

// driverInput finds the input matrix backing a driver node: the node itself
// when external, otherwise the unique same-shaped input inside the driver's
// member subtree.
func driverInput(p *fusion.Plan, driver *dag.Node) *dag.Node {
	if driver.Op == dag.OpInput {
		return driver
	}
	if !p.Contains(driver) {
		return nil
	}
	var found *dag.Node
	var walk func(n *dag.Node)
	walk = func(n *dag.Node) {
		if n.Op == dag.OpInput && n.Rows == driver.Rows && n.Cols == driver.Cols {
			found = n
			return
		}
		if !p.Contains(n) {
			return
		}
		for _, in := range n.Inputs {
			walk(in)
		}
	}
	walk(driver)
	return found
}
