package exec

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"fuseme/internal/cluster"
	"fuseme/internal/cost"
	"fuseme/internal/dag"
	"fuseme/internal/fusion"
	"fuseme/internal/obs"
	"fuseme/internal/rt/spec"
)

// This file is lowering: a fused operator becomes its stages once, when the
// plan is compiled, for a cluster of one block size and slot count. It is the
// one place a stage descriptor is built. The stages, and the per-plan context
// every task of them reads, are immutable once lowering returns — a plan
// cache shares them across sessions — so an execution that binds data-
// dependent fields works on a copy (Operator.bound).

// Operator is a fused operator lowered to the stages it runs, in order.
type Operator struct {
	Stages []*Stage

	pred    obs.FlightRecord // the prediction half of every stage's flight record
	outs    []*planCtx       // one per output, shared by every stage
	inputs  []*dag.Node      // non-scalar external inputs of every output plan, by ID
	balance bool             // i/j ranges follow the sparse driver of each binding
}

// Stage is one lowered stage: the descriptor a remote worker receives, and the
// context of the plans it evaluates, which both backends build from the same
// constructor.
type Stage struct {
	Spec spec.Stage

	outs  []*planCtx  // [0] is Spec.Plan's, then one per plan of Spec.Group
	sides []*dag.Node // Broadcast: the side matrices every task receives whole
}

// planCtx is what the tasks of a stage read of one output plan, derived from
// the plan once per stage and never written after.
type planCtx struct {
	plan  *fusion.Plan
	root  *dag.Node         // evaluated per output block
	agg   *dag.Node         // the root aggregation; nil emits final blocks
	mask  *fusion.OuterMask // outer-fusion pattern; nil if none or under NoMask
	tree  *fusion.SpaceTree // nil for a plan without multiplication
	roles []role            // by node ID; an ID past the slice has no role
}

// role is what a plan makes of one node, read on the per-block path.
type role uint8

const (
	roleMember   role = 1 << iota // a member of the plan (Plan.Contains)
	roleRetained                  // a task retains the node's blocks (an input's always are)
	roleFolded                    // a member transpose its consumer reads in place (Plan.Folded)
)

// role returns node id's role in the plan.
func (pc *planCtx) role(id int) role {
	if uint(id) < uint(len(pc.roles)) {
		return pc.roles[id]
	}
	return 0
}

// member reports whether n is a member of the plan.
func (pc *planCtx) member(n *dag.Node) bool { return pc.role(n.ID)&roleMember != 0 }

// newPlanCtx derives the context of plan p: the stage-context constructor's
// half that reads the plan. It is the only place the executor asks a plan for
// its space tree, node spaces, outer mask or multiplications; lowering calls
// it once per operator and a worker once per shipped stage.
func newPlanCtx(p *fusion.Plan, noMask bool) *planCtx {
	pc := &planCtx{plan: p, root: p.Root, tree: p.Spaces()}
	if p.Root.Op == dag.OpUnaryAgg {
		pc.root, pc.agg = p.Root.Inputs[0], p.Root
	}
	if !noMask {
		pc.mask = fusion.FindOuterMask(p)
	}
	// Retained within the task: L/R-space results (reused across the task's
	// output blocks) and the operands of every multiplication — a nested
	// one's coordinates repeat across output blocks by construction.
	mark := func(id int, r role) {
		if id >= len(pc.roles) {
			pc.roles = append(pc.roles, make([]role, id+1-len(pc.roles))...)
		}
		pc.roles[id] |= r
	}
	var masked *dag.Node
	if pc.mask != nil {
		masked = p.MainMM
	}
	for id, n := range p.Members {
		mark(id, roleMember)
		if p.Folded(n, masked) {
			mark(id, roleFolded)
		}
	}
	for id, s := range p.NodeSpaces() {
		if s == fusion.SpaceL || s == fusion.SpaceR {
			mark(id, roleRetained)
		}
	}
	for _, mm := range p.MatMuls() {
		for _, in := range mm.Inputs {
			mark(in.ID, roleRetained)
		}
	}
	return pc
}

// newStage builds stage sp over the contexts of its plans.
func newStage(sp spec.Stage, outs []*planCtx) *Stage {
	st := &Stage{Spec: sp, outs: outs}
	if sp.Broadcast {
		p := outs[0].plan
		mainIn := cost.MainInput(p)
		for _, in := range p.ExternalInputs() {
			if in != mainIn && in.Op != dag.OpScalar {
				st.sides = append(st.sides, in)
			}
		}
	}
	return st
}

// newOperator starts the operator whose outputs are outs.
func newOperator(pred obs.FlightRecord, outs []*planCtx) *Operator {
	lo := &Operator{pred: pred, outs: outs}
	seen := map[int]bool{}
	for _, pc := range outs {
		for _, in := range pc.plan.ExternalInputs() {
			if in.Op != dag.OpScalar && !seen[in.ID] {
				seen[in.ID] = true
				lo.inputs = append(lo.inputs, in)
			}
		}
	}
	sort.Slice(lo.inputs, func(i, j int) bool { return lo.inputs[i].ID < lo.inputs[j].ID })
	return lo
}

// Inputs returns the nodes whose values an execution binds: the non-scalar
// external inputs of the operator's plans, in ID order.
func (lo *Operator) Inputs() []*dag.Node { return lo.inputs }

// Roots returns the nodes whose values Run returns, in its order.
func (lo *Operator) Roots() []*dag.Node {
	roots := make([]*dag.Node, len(lo.outs))
	for i, pc := range lo.outs {
		roots[i] = pc.plan.Root
	}
	return roots
}

// Lower lowers op to its stages for a cluster of shape cfg. Under (P,Q,R)
// cuboid partitioning (CFO, and RFO's (I,J,1)) R = 1 is one stage computing
// final blocks, R > 1 a partial stage and a fuse stage. A plan without
// multiplication, and a BFO, is one grid stage: a strided map over the output
// block grid, one task per slot at most.
func (op *FusedOp) Lower(cfg cluster.Config) (*Operator, error) {
	if op.Plan == nil {
		return nil, errors.New("exec: nil plan")
	}
	if err := op.Plan.Validate(); err != nil {
		return nil, err
	}
	pc := newPlanCtx(op.Plan, op.NoMask)
	lo := newOperator(op.Pred, []*planCtx{pc})
	bs := cfg.BlockSize
	if op.Plan.MainMM == nil || op.Strategy == Broadcast {
		// Pure element-wise plans run as a map over co-partitioned data;
		// reorganised or broadcast-shaped inputs still consolidate. Under
		// Broadcast, side matrices ship whole to every task and the main
		// multiplication runs with its full inner dimension in each kernel.
		sp := gridSpec(cfg, stageName(op.Plan, "map"), pc.root, op.Strategy != Broadcast && op.Plan.MainMM == nil, op.Plan)
		sp.Broadcast = op.Strategy == Broadcast
		sp.NoMask = op.NoMask
		if op.Plan.MainMM != nil {
			_, _, sp.GK = op.Plan.BlockGridDims(bs)
		}
		lo.Stages = []*Stage{newStage(sp, lo.outs)}
		return lo, nil
	}

	gi, gj, gk := op.Plan.BlockGridDims(bs)
	p := clamp(op.P, 1, gi)
	q := clamp(op.Q, 1, gj)
	r := clamp(op.R, 1, gk)
	lo.balance = op.Balance && pc.mask != nil
	base := spec.Stage{
		BlockSize: bs,
		Plan:      spec.FromPlan(op.Plan),
		NoMask:    op.NoMask,
		Swapped:   rootPlaneSwapped(op.Plan, pc.root),
		IRanges:   equalRanges(gi, p),
		JRanges:   equalRanges(gj, q),
		GI:        gi,
		GJ:        gj,
		GK:        gk,
		Colocated: colocatedOInputs(pc),
	}
	if r == 1 {
		sp := base
		sp.Name, sp.Phase, sp.NumTasks = stageName(op.Plan, "local"), spec.PhaseCuboid, p*q
		lo.Stages = []*Stage{newStage(sp, lo.outs)}
		return lo, nil
	}
	// Stage one: partial main-multiplication results per cuboid, shuffled to
	// their (p,q) owners (the matrix aggregation step). Stage two: owners
	// apply the O-space chain once over the aggregated results.
	partial, fuse := base, base
	partial.Name, partial.Phase, partial.NumTasks = stageName(op.Plan, "partial"), spec.PhasePartial, p*q*r
	partial.KRanges = equalRanges(gk, r)
	fuse.Name, fuse.Phase, fuse.NumTasks = stageName(op.Plan, "fuse"), spec.PhaseFuse, p*q
	lo.Stages = []*Stage{newStage(partial, lo.outs), newStage(fuse, lo.outs)}
	return lo, nil
}

// Lower lowers the multi-aggregation to one grid stage with an output per
// plan; inputs shaped like the plane are co-partitioned, as in a map stage.
func (op *MultiAggOp) Lower(cfg cluster.Config) (*Operator, error) {
	if err := op.Validate(); err != nil {
		return nil, err
	}
	outs := make([]*planCtx, len(op.Plans))
	for i, p := range op.Plans {
		outs[i] = newPlanCtx(p, false)
	}
	sp := gridSpec(cfg, fmt.Sprintf("multiagg:%d-plans", len(op.Plans)), op.Plans[0].Root.Inputs[0], true, op.Plans...)
	lo := newOperator(op.Pred, outs)
	lo.Stages = []*Stage{newStage(sp, outs)}
	return lo, nil
}

// gridSpec describes a strided map over the block grid of plane — the stage
// shape of matmul-free plans, BFO executions and multi-aggregations — sized
// to one wave of tasks. With colocate set, the inputs of plans shaped like
// the plane are co-partitioned with it: they pipeline without network
// transfer, as they do in a Spark map stage.
func gridSpec(cfg cluster.Config, name string, plane *dag.Node, colocate bool, plans ...*fusion.Plan) spec.Stage {
	bs := cfg.BlockSize
	gi := (plane.Rows + bs - 1) / bs
	gj := (plane.Cols + bs - 1) / bs
	var colocated []int
	for _, p := range plans {
		for _, in := range p.ExternalInputs() {
			if colocate && in.Rows == plane.Rows && in.Cols == plane.Cols {
				colocated = append(colocated, in.ID)
			}
		}
	}
	sp := spec.Stage{
		Name:      name,
		Phase:     spec.PhaseGrid,
		NumTasks:  max(min(cfg.TotalSlots(), gi*gj), 1),
		BlockSize: bs,
		Plan:      spec.FromPlan(plans[0]),
		GI:        gi,
		GJ:        gj,
		Colocated: sortedIDs(colocated),
	}
	for _, p := range plans[1:] {
		sp.Group = append(sp.Group, spec.FromPlan(p))
	}
	return sp
}

// colocatedOInputs returns the external inputs of the plan's top-level
// O-space that are shaped like the main multiplication's output plane: they
// are consumed pre-partitioned on the (p,q) grid and move no bytes, matching
// the paper's measured CFO communication (see the cost package).
func colocatedOInputs(pc *planCtx) []int {
	var out []int
	if t := pc.tree; t != nil {
		for _, n := range t.O.Nodes {
			for _, in := range n.Inputs {
				if !pc.plan.Contains(in) && in.Rows == t.MM.Rows && in.Cols == t.MM.Cols {
					out = append(out, in.ID)
				}
			}
		}
	}
	return sortedIDs(out)
}

// rootPlaneSwapped reports whether the plane of root, the node evaluated per
// output block, is the transpose of the main multiplication's output plane
// (an odd number of transposes on the O-space path from root to mm).
func rootPlaneSwapped(p *fusion.Plan, root *dag.Node) bool {
	swaps := 0
	var walk func(n *dag.Node, s int) bool
	walk = func(n *dag.Node, s int) bool {
		if n == p.MainMM {
			swaps = s
			return true
		}
		if !p.Contains(n) || n.Op == dag.OpMatMul {
			return false
		}
		next := s
		if n.Op == dag.OpTranspose {
			next = s + 1
		}
		for _, in := range n.Inputs {
			if walk(in, next) {
				return true
			}
		}
		return false
	}
	walk(root, 0)
	return swaps%2 == 1
}

// sortedIDs returns a node-ID list in a deterministic order, each ID once.
func sortedIDs(ids []int) []int {
	slices.Sort(ids)
	return slices.Compact(ids)
}

func stageName(p *fusion.Plan, phase string) string {
	return fmt.Sprintf("%s:%s#%d", phase, p.Root.Label(), p.Root.ID)
}
