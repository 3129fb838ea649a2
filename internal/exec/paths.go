package exec

import (
	"fmt"
	"slices"
	"sort"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/dag"
	"fuseme/internal/fusion"
	"fuseme/internal/matrix"
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

// dispatch hands one stage to the runtime, and is the one place an rt.Stage
// is built: the closure runs runStageTask in-process; descriptor-capable
// runtimes ship the spec to workers and feed results back through Collect.
// Both paths route results through a task-index-ordered stage reducer, so
// floating-point results fold in the same order whatever order tasks complete
// in. Both are wrapped in the operator's observability (spans, metrics,
// calibration measurement) when enabled.
func dispatch(rtm rt.Runtime, name string, ctx *stageCtx, src blockSource, route emitFn) error {
	cached := len(ctx.sp.Epochs) > 0
	var gen uint64
	if cached {
		gen = rtm.StageCacheGen()
		// Drop residual cache entries of inputs that were rebound since they
		// were cached: their epoch changed, so the entries can never hit
		// again and only waste budget (on the TCP backend this pushes
		// invalidation frames to the workers holding them).
		for _, ne := range ctx.sp.Epochs {
			rtm.InvalidateStaleEpochs(ne.Node, ne.Epoch)
		}
	}
	red := newStageReducer(ctx.sp.NumTasks, route)
	return runObservedStage(rtm, ctx.op.Obs, ctx.op.pred(), &rt.Stage{
		Name:     name,
		NumTasks: ctx.sp.NumTasks,
		Fn: func(task *cluster.Task) error {
			var cc *CacheCtx
			if cached {
				if cache := rtm.TaskCache(task.ID); cache != nil {
					cc = &CacheCtx{Cache: cache, Gen: gen}
				}
			}
			red.reset(task.ID)
			if err := runStageTask(ctx, task.ID, task, src, red.emitFor(task.ID), cc); err != nil {
				return err
			}
			red.complete(task.ID)
			return nil
		},
		Spec:  ctx.sp,
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

// executeCuboid runs the plan under (P,Q,R) cuboid partitioning: the CFO
// (optimised parameters) and the RFO ((I,J,1)).
func (op *FusedOp) executeCuboid(rtm rt.Runtime, bind Bindings) (*block.Matrix, error) {
	bs := rtm.Config().BlockSize
	gi, gj, gk := op.Plan.BlockGridDims(bs)
	p := clamp(op.P, 1, gi)
	q := clamp(op.Q, 1, gj)
	r := clamp(op.R, 1, gk)

	root, rootAgg := op.effectiveRoot()
	swapped := op.rootPlaneSwapped(root)
	mask := opMask(op)
	colocated := colocatedOInputs(op.Plan)

	iRanges := equalRanges(gi, p)
	jRanges := equalRanges(gj, q)
	kRanges := equalRanges(gk, r)
	if op.Balance && mask != nil {
		if rw, cw := driverWeights(op.Plan, mask, bind); rw != nil {
			iRanges = weightedRanges(rw, p)
			jRanges = weightedRanges(cw, q)
			p, q = len(iRanges), len(jRanges)
		}
	}

	var out *block.Matrix
	var agg *aggSink
	if rootAgg != nil {
		agg = &aggSink{agg: rootAgg.Agg, out: block.New(rootAgg.Rows, rootAgg.Cols, bs)}
	} else {
		out = block.New(root.Rows, root.Cols, bs)
	}
	sink := &resultSink{out: out}

	planSpec := spec.FromPlan(op.Plan)
	base := spec.Stage{
		BlockSize: bs,
		Plan:      planSpec,
		NoMask:    op.NoMask,
		Swapped:   swapped,
		IRanges:   toSpans(iRanges),
		JRanges:   toSpans(jRanges),
		GI:        gi,
		GJ:        gj,
		GK:        gk,
		Colocated: colocatedList(colocated),
		Epochs:    stageEpochs(rtm, bind, op.Plan),
	}

	if r == 1 {
		sp := base
		sp.Name = stageName(op, "local")
		sp.Phase = spec.PhaseCuboid
		sp.NumTasks = p * q
		src := bindSource{bind: bind}
		route := routeTo(sink, agg, nil)
		if err := dispatch(rtm, sp.Name, newStageCtx(op, &sp), src, route); err != nil {
			return nil, err
		}
		return op.finish(out, agg)
	}

	// Stage one: partial main-multiplication results per cuboid, shuffled to
	// their (p,q) owners (the matrix aggregation step).
	partials := &mmPartialSink{blocks: make(map[block.Key]matrix.Mat)}
	sp1 := base
	sp1.Name = stageName(op, "partial")
	sp1.Phase = spec.PhasePartial
	sp1.NumTasks = p * q * r
	sp1.KRanges = toSpans(kRanges)
	src1 := bindSource{bind: bind}
	if err := dispatch(rtm, sp1.Name, newStageCtx(op, &sp1), src1, routeTo(sink, agg, partials)); err != nil {
		return nil, err
	}

	// Stage two: owners apply the O-space chain once over aggregated
	// multiplication results.
	sp2 := base
	sp2.Name = stageName(op, "fuse")
	sp2.Phase = spec.PhaseFuse
	sp2.NumTasks = p * q
	src2 := bindSource{bind: bind, partials: partials}
	if err := dispatch(rtm, sp2.Name, newStageCtx(op, &sp2), src2, routeTo(sink, agg, partials)); err != nil {
		return nil, err
	}
	return op.finish(out, agg)
}

// executeGrid runs plans without matrix multiplication, and BFO executions,
// as a partitioned map over the output block grid. Under Broadcast, side
// matrices are shipped whole to every task and the main multiplication (if
// any) runs with its full inner dimension inside each kernel.
func (op *FusedOp) executeGrid(rtm rt.Runtime, bind Bindings) (*block.Matrix, error) {
	bs := rtm.Config().BlockSize
	root, rootAgg := op.effectiveRoot()
	// Pure element-wise plans run as a map over co-partitioned data;
	// reorganised or broadcast-shaped inputs still consolidate.
	sp := gridStage(rtm, bind, stageName(op, "map"), root, op.Strategy != Broadcast && op.Plan.MainMM == nil, op.Plan)
	sp.Broadcast = op.Strategy == Broadcast
	sp.NoMask = op.NoMask
	if op.Plan.MainMM != nil {
		_, _, sp.GK = op.Plan.BlockGridDims(bs)
	}

	var out *block.Matrix
	var agg *aggSink
	if rootAgg != nil {
		agg = &aggSink{agg: rootAgg.Agg, out: block.New(rootAgg.Rows, rootAgg.Cols, bs)}
	} else {
		out = block.New(root.Rows, root.Cols, bs)
	}
	sink := &resultSink{out: out}
	src := bindSource{bind: bind}
	if err := dispatch(rtm, sp.Name, newStageCtx(op, &sp), src, routeTo(sink, agg, nil)); err != nil {
		return nil, err
	}
	return op.finish(out, agg)
}

// gridStage describes a strided map over the block grid of plane — the stage
// shape of matmul-free plans, BFO executions and multi-aggregations — sized
// to one wave of tasks. With colocate set, the inputs of plans shaped like
// the plane are co-partitioned with it: they pipeline without network
// transfer, as they do in a Spark map stage.
func gridStage(rtm rt.Runtime, bind Bindings, name string, plane *dag.Node, colocate bool, plans ...*fusion.Plan) spec.Stage {
	bs := rtm.Config().BlockSize
	gi := (plane.Rows + bs - 1) / bs
	gj := (plane.Cols + bs - 1) / bs
	numTasks := min(rtm.Config().PlanSlots(), gi*gj)
	if numTasks < 1 {
		numTasks = 1
	}
	colocated := map[int]bool{}
	for _, p := range plans {
		for _, in := range p.ExternalInputs() {
			if colocate && in.Rows == plane.Rows && in.Cols == plane.Cols {
				colocated[in.ID] = true
			}
		}
	}
	sp := spec.Stage{
		Name:      name,
		Phase:     spec.PhaseGrid,
		NumTasks:  numTasks,
		BlockSize: bs,
		Plan:      spec.FromPlan(plans[0]),
		GI:        gi,
		GJ:        gj,
		Colocated: colocatedList(colocated),
		Epochs:    stageEpochs(rtm, bind, plans...),
	}
	for _, p := range plans[1:] {
		sp.Group = append(sp.Group, spec.FromPlan(p))
	}
	return sp
}

// routeTo builds the emit routing for a stage's result blocks: final blocks
// land in the result sink, task aggregates fold into the aggregation sink,
// and partial main-multiplication blocks accumulate in the shuffle sink.
func routeTo(sink *resultSink, agg *aggSink, partials *mmPartialSink) emitFn {
	return func(kind uint8, bi, bj int, blk matrix.Mat) {
		switch kind {
		case spec.OutFinal:
			sink.put(bi, bj, blk)
		case spec.OutAgg:
			agg.combine(bi, bj, blk)
		case spec.OutPartial:
			partials.add(bi, bj, blk)
		}
	}
}

// stageEpochs resolves the epoch list a stage descriptor advertises: the
// content epochs of the plans' bound external inputs in node-ID order (the
// cache keys' version component; scalars carry none) when the runtime has
// block caching enabled, nil (no caching, the exact uncached execution)
// otherwise.
func stageEpochs(rtm rt.Runtime, bind Bindings, plans ...*fusion.Plan) []spec.NodeEpoch {
	if rtm.Config().CacheBytes <= 0 {
		return nil
	}
	var out []spec.NodeEpoch
	for _, p := range plans {
		for _, in := range p.ExternalInputs() {
			if m, ok := bind[in.ID]; ok && in.Op != dag.OpScalar {
				out = append(out, spec.NodeEpoch{Node: in.ID, Epoch: m.Epoch()})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return slices.Compact(out) // an input several plans share is listed once
}

// toSpans converts internal spans to their wire representation.
func toSpans(ss []span) []spec.Span {
	out := make([]spec.Span, len(ss))
	for i, s := range ss {
		out[i] = spec.Span{Lo: s.lo, Hi: s.hi}
	}
	return out
}

// colocatedList flattens a colocated-input set into a deterministic list.
func colocatedList(m map[int]bool) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// driverWeights derives per-block-row and per-block-column non-zero counts
// of the plan's sparse driver, resolved to the underlying bound input (the
// driver may be a pattern operator like X != 0 over an input X). Returns
// nils when no bound input backs the driver.
func driverWeights(p *fusion.Plan, mask *fusion.OuterMask, bind Bindings) (rowW, colW []int64) {
	src := driverInput(p, mask.Driver)
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

// colocatedOInputs returns the external inputs of the plan's top-level
// O-space that are shaped like the main multiplication's output plane: they
// are consumed pre-partitioned on the (p,q) grid and move no bytes, matching
// the paper's measured CFO communication (see the cost package).
func colocatedOInputs(p *fusion.Plan) map[int]bool {
	tree := p.Spaces()
	if tree == nil {
		return nil
	}
	out := map[int]bool{}
	for _, n := range tree.O.Nodes {
		for _, in := range n.Inputs {
			if !p.Contains(in) && in.Rows == tree.MM.Rows && in.Cols == tree.MM.Cols {
				out[in.ID] = true
			}
		}
	}
	return out
}

func (op *FusedOp) finish(out *block.Matrix, agg *aggSink) (*block.Matrix, error) {
	if agg != nil {
		return agg.out, nil
	}
	return out, nil
}

func stageName(op *FusedOp, phase string) string {
	return fmt.Sprintf("%s:%s#%d", phase, op.Plan.Root.Label(), op.Plan.Root.ID)
}
