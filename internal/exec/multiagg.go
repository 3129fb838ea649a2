package exec

import (
	"fmt"

	"fuseme/internal/block"
	"fuseme/internal/dag"
	"fuseme/internal/fusion"
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

	// Pred is the planner's half of the stage's flight record (see
	// FusedOp.Pred).
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

// Execute lowers the multi-aggregation for the runtime's cluster and runs it;
// results are returned in plan order.
func (op *MultiAggOp) Execute(rtm rt.Runtime, bind Bindings) ([]*block.Matrix, error) {
	lo, err := op.Lower(rtm.Config())
	if err != nil {
		return nil, err
	}
	return lo.Run(rtm, bind, nil)
}
