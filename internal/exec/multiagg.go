package exec

import (
	"fmt"

	"fuseme/internal/block"
	"fuseme/internal/dag"
	"fuseme/internal/fusion"
	"fuseme/internal/matrix"
	"fuseme/internal/obs"
	"fuseme/internal/rt"
)

// MultiAggOp executes several aggregation-rooted plans over the same input
// plane as one distributed operator — the paper's Multi-aggregation fusion
// (Figure 2(d)): a fused operator with more than one output. The plans'
// shared inputs are consolidated once per task instead of once per plan,
// and the plane is scanned in a single stage.
//
// Every plan must be rooted at a unary aggregation, contain no matrix
// multiplication, and aggregate over the same plane dimensions.
type MultiAggOp struct {
	Plans []*fusion.Plan

	// Obs receives the stage span, metrics and flight record; nil disables
	// instrumentation.
	Obs *obs.Obs
	// Pred is the planner's half of the stage's flight record (see
	// FusedOp.Pred); Op defaults to the stage name.
	Pred obs.FlightRecord
}

// Validate checks the multi-aggregation preconditions.
func (op *MultiAggOp) Validate() error {
	if n := len(op.Plans); n < 2 || n > maxOutputs {
		return fmt.Errorf("exec: multi-aggregation of %d plans, needs 2 to %d", n, maxOutputs)
	}
	for i, p := range op.Plans {
		if err := p.Validate(); err != nil {
			return err
		}
		if p.Root.Op != dag.OpUnaryAgg {
			return fmt.Errorf("exec: multi-aggregation plan %d is not aggregation-rooted", i)
		}
		if p.MainMM != nil {
			return fmt.Errorf("exec: multi-aggregation plan %d contains a matmul", i)
		}
		if child, plane := p.Root.Inputs[0], op.Plans[0].Root.Inputs[0]; child.Rows != plane.Rows || child.Cols != plane.Cols {
			return fmt.Errorf("exec: multi-aggregation plane mismatch %dx%d vs %dx%d",
				child.Rows, child.Cols, plane.Rows, plane.Cols)
		}
	}
	return nil
}

// Execute runs the fused multi-aggregation as one grid stage with an output
// per plan, through the dispatch every stage takes; results are returned in
// plan order.
func (op *MultiAggOp) Execute(rtm rt.Runtime, bind Bindings) ([]*block.Matrix, error) {
	if err := op.Validate(); err != nil {
		return nil, err
	}
	// Inputs shaped like the plane are co-partitioned, as in the grid path.
	sp := gridStage(rtm, bind, fmt.Sprintf("multiagg:%d-plans", len(op.Plans)), op.Plans[0].Root.Inputs[0], true, op.Plans...)
	first := &FusedOp{Plan: op.Plans[0], Obs: op.Obs, Pred: op.Pred}
	if first.Pred.Op == "" {
		first.Pred.Op = sp.Name
	}
	outs := make([]*block.Matrix, len(op.Plans))
	sinks := make([]*aggSink, len(op.Plans))
	for i, p := range op.Plans {
		outs[i] = block.New(p.Root.Rows, p.Root.Cols, sp.BlockSize)
		sinks[i] = &aggSink{agg: p.Root.Agg, out: outs[i]}
	}
	route := func(kind uint8, bi, bj int, blk matrix.Mat) { sinks[aggOutput(kind)].combine(bi, bj, blk) }
	if err := dispatch(rtm, sp.Name, newStageCtx(first, &sp, op.Plans[1:]...), bindSource{bind: bind}, route); err != nil {
		return nil, err
	}
	return outs, nil
}
