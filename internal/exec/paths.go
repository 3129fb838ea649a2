package exec

import (
	"errors"
	"fmt"

	"fuseme/internal/block"
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
	sk := &sinks{aggs: make([]*aggSink, len(lo.outs))}
	results := make([]*block.Matrix, len(lo.outs))
	for i, pc := range lo.outs {
		if pc.agg != nil {
			sk.aggs[i] = &aggSink{agg: pc.agg.Agg, out: block.New(pc.agg.Rows, pc.agg.Cols, bs)}
			results[i] = sk.aggs[i].out
		} else { // only a single-output operator emits final blocks
			sk.final = &resultSink{out: block.New(pc.root.Rows, pc.root.Cols, bs)}
			results[i] = sk.final.out
		}
	}
	src := bindSource{bind: bind}
	if len(lo.Stages) > 1 {
		mm := lo.outs[0].plan.MainMM
		sk.partials = &mmPartialSink{out: block.New(mm.Rows, mm.Cols, bs)}
		src.partials = sk.partials
	}
	for _, st := range lo.bound(bind) {
		if err := dispatch(rtm, o, lo.pred, st, src, sk); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// sinks are where an operator's results land: final blocks in the result
// sink, task aggregates in their output's aggregation sink, and partial
// main-multiplication blocks in the shuffle sink. Each sink an operator
// does not produce is nil.
type sinks struct {
	final    *resultSink
	aggs     []*aggSink
	partials *mmPartialSink
}

// route folds one result block into its sink.
func (k *sinks) route(kind uint8, bi, bj int, blk matrix.Mat) {
	switch outKind(kind) {
	case spec.OutFinal:
		k.final.put(bi, bj, blk)
	case spec.OutAgg:
		k.aggs[aggOutput(kind)].combine(bi, bj, blk)
	case spec.OutPartial:
		k.partials.add(bi, bj, blk)
	}
}

// ErrMalformedResult is a result block a remote task sent that route cannot
// take: a kind the stage does not emit, a key outside the target grid, or a
// block not shaped as the grid's block there. The attempt fails, and the
// task is retried.
var ErrMalformedResult = errors.New("exec: malformed result block")

// check validates a result block that came off the wire against the sinks
// before route sees it: the kind a stage of this phase emits, into a sink
// the operator has, at a key and in a shape that sink's grid takes.
func (k *sinks) check(phase string, kind uint8, bi, bj int, blk matrix.Mat) error {
	var target *block.Matrix
	out, partial := aggOutput(kind), phase == spec.PhasePartial
	switch outKind(kind) {
	case spec.OutPartial:
		if partial && out == 0 && k.partials != nil {
			target = k.partials.out
		}
	case spec.OutFinal:
		if !partial && out == 0 && k.final != nil {
			target = k.final.out
		}
	case spec.OutAgg:
		if !partial && out < len(k.aggs) && k.aggs[out] != nil {
			target = k.aggs[out].out
		}
	}
	if target == nil {
		return fmt.Errorf("%w: kind %#x in a %s stage", ErrMalformedResult, kind, phase)
	}
	if err := target.CheckBlock(bi, bj, blk); err != nil {
		return fmt.Errorf("%w: %v", ErrMalformedResult, err)
	}
	return nil
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

// bound returns the stages as this execution runs them. Only the i/j ranges
// of a balanced operator depend on the execution rather than the plan: they
// follow the non-zeros of the bound driver. Without them the lowered stages
// run as they are; otherwise each runs as a copy with its ranges filled in.
func (lo *Operator) bound(bind Bindings) []*Stage {
	var rowW, colW []int64
	if lo.balance {
		rowW, colW = driverWeights(lo.outs[0], bind)
	}
	if rowW == nil {
		return lo.Stages
	}
	out := make([]*Stage, len(lo.Stages))
	for i, st := range lo.Stages {
		sp := st.Spec
		sp.IRanges = weightedRanges(rowW, len(sp.IRanges))
		sp.JRanges = weightedRanges(colW, len(sp.JRanges))
		sp.NumTasks = len(sp.IRanges) * len(sp.JRanges) * max(len(sp.KRanges), 1)
		out[i] = newStage(sp, st.outs)
	}
	return out
}

// dispatch hands one stage to the runtime, and is the one place an rt.Stage
// is built: the descriptor, its task entry (Stage.RunTask), the
// coordinator-side block source src as Fetch, and Collect, which checks a
// task's result blocks and folds them through a task-index-ordered stage
// reducer, so floating-point results fold in the same order whatever order
// tasks complete in. Every runtime runs the task entry — a worker on its
// rebuilt copy, the simulated cluster in-process (rt.RunStage) — and hands
// the blocks to Collect. The stage is wrapped in the operator's
// observability (spans, metrics, calibration measurement) when enabled.
func dispatch(rtm rt.Runtime, o *obs.Obs, pred obs.FlightRecord, st *Stage, src bindSource, sk *sinks) error {
	sp := &st.Spec
	red := newStageReducer(sp.NumTasks, sk.route)
	return runObservedStage(rtm, o, pred, &rt.Stage{
		Name:     sp.Name,
		NumTasks: sp.NumTasks,
		Spec:     sp,
		RunTask:  st.RunTask,
		Fetch:    src.fetch,
		Collect: func(taskID int, blocks []spec.OutBlock) error {
			// Every block is checked before any is routed: final blocks
			// route at once, so a rejected attempt must leave nothing behind.
			for _, ob := range blocks {
				if err := sk.check(sp.Phase, ob.Kind, ob.BI, ob.BJ, ob.Block); err != nil {
					return fmt.Errorf("task %d result (%d,%d): %w", taskID, ob.BI, ob.BJ, err)
				}
			}
			red.collect(taskID, blocks)
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
