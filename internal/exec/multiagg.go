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
	if len(op.Plans) < 2 {
		return fmt.Errorf("exec: multi-aggregation needs at least two plans")
	}
	var pr, pc int
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
		child := p.Root.Inputs[0]
		if i == 0 {
			pr, pc = child.Rows, child.Cols
		} else if child.Rows != pr || child.Cols != pc {
			return fmt.Errorf("exec: multi-aggregation plane mismatch %dx%d vs %dx%d",
				child.Rows, child.Cols, pr, pc)
		}
	}
	return nil
}

// Execute runs the fused multi-aggregation; results are returned in plan
// order. Multi-aggregation stages always run in-process on the coordinator:
// their plane scan is cheap relative to shipping several plans, so the
// descriptor path is not used.
func (op *MultiAggOp) Execute(rtm rt.Runtime, bind Bindings) ([]*block.Matrix, error) {
	if err := op.Validate(); err != nil {
		return nil, err
	}
	bs := rtm.Config().BlockSize
	child := op.Plans[0].Root.Inputs[0]
	gi := (child.Rows + bs - 1) / bs
	gj := (child.Cols + bs - 1) / bs
	totalBlocks := gi * gj
	numTasks := min(rtm.Config().PlanSlots(), totalBlocks)
	if numTasks < 1 {
		numTasks = 1
	}

	// Inputs shaped like the plane are co-partitioned, as in the grid path.
	colocated := map[int]bool{}
	for _, p := range op.Plans {
		for _, in := range p.ExternalInputs() {
			if in.Rows == child.Rows && in.Cols == child.Cols {
				colocated[in.ID] = true
			}
		}
	}

	sinks := make([]*aggSink, len(op.Plans))
	for i, p := range op.Plans {
		sinks[i] = &aggSink{agg: p.Root.Agg, out: block.New(p.Root.Rows, p.Root.Cols, bs)}
	}

	name := fmt.Sprintf("multiagg:%d-plans", len(op.Plans))
	pred := op.Pred
	if pred.Op == "" {
		pred.Op = name
	}
	err := runObservedStage(rtm, op.Obs, pred, &rt.Stage{Name: name, NumTasks: numTasks, Fn: func(task *cluster.Task) error {
		return runTask(func() error {
			// One evaluator per plan, all sharing the fetch-dedup map so a
			// block consumed by several aggregations moves (and is held)
			// once per task.
			sharedFetched := map[memoKey]bool{}
			evs := make([]*evaluator, len(op.Plans))
			partials := make([]*block.Matrix, len(op.Plans))
			for i, p := range op.Plans {
				fo := &FusedOp{Plan: p}
				evs[i] = newEvaluator(fo, task, bindSource{bind: bind}, bs, 0, 0)
				evs[i].fetched = sharedFetched
				evs[i].colocated = colocated
				partials[i] = block.New(p.Root.Rows, p.Root.Cols, bs)
			}
			for l := task.ID; l < totalBlocks; l += numTasks {
				bi, bj := l/gj, l%gj
				for i, p := range op.Plans {
					blk := evs[i].evalBlock(p.Root.Inputs[0], bi, bj)
					aggregateLocal(task, partials[i], p.Root.Agg, bi, bj, blk)
				}
			}
			for i := range op.Plans {
				partials[i].ForEach(func(k block.Key, blk matrix.Mat) {
					task.SendBlock(blk)
					sinks[i].combine(k.Row, k.Col, blk)
				})
			}
			return nil
		})
	}})
	if err != nil {
		return nil, err
	}
	outs := make([]*block.Matrix, len(sinks))
	for i, s := range sinks {
		outs[i] = s.out
	}
	return outs, nil
}
