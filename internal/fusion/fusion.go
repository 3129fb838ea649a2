// Package fusion defines partial fusion plans — the sub-DAGs a plan
// generator carves out of a query DAG to run as single fused operators — and
// the structural analyses shared by the planners (CFG, GEN), the cost model
// and the executor: termination-operator rules, the L/R/O/MM space tree of
// the paper's 3-dimensional model (Section 3.1), fusion-type classification
// and outer-fusion (sparsity-exploitation) mask detection.
package fusion

import (
	"fmt"
	"sort"

	"fuseme/internal/dag"
	"fuseme/internal/matrix"
)

// Type classifies a partial fusion plan per Section 2.1 of the paper.
type Type int

// Fusion types.
const (
	Cell     Type = iota // consecutive element-wise operators only
	Row                  // contains matrix multiplication / row reuse
	Outer                // matmul fused with a sparse element-wise multiply
	MultiAgg             // aggregation root(s)
)

// String names the fusion type.
func (t Type) String() string {
	switch t {
	case Cell:
		return "Cell"
	case Row:
		return "Row"
	case Outer:
		return "Outer"
	case MultiAgg:
		return "Multi-aggregation"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// OuterSparsityThreshold is the maximum estimated density of an input for it
// to act as the sparse driver of an outer-fusion (masked) evaluation.
const OuterSparsityThreshold = 0.1

// Plan is a partial fusion plan: a connected sub-DAG executed as one fused
// operator. Within a plan every non-root member has exactly one consumer
// (multi-consumer operators are termination operators and cannot be fused),
// so the member set forms a tree rooted at Root.
type Plan struct {
	Root    *dag.Node
	Members map[int]*dag.Node // keyed by node ID; includes Root
	MainMM  *dag.Node         // designated main matrix multiplication; nil if none

	spaces *SpaceTree // lazily built
}

// NewPlan builds a plan from a member set and validates its tree structure.
func NewPlan(root *dag.Node, members map[int]*dag.Node) (*Plan, error) {
	p := &Plan{Root: root, Members: members}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.MainMM = ChooseMainMM(p)
	return p, nil
}

// Contains reports membership of n in the plan.
func (p *Plan) Contains(n *dag.Node) bool {
	_, ok := p.Members[n.ID]
	return ok
}

// Size returns the number of member operators.
func (p *Plan) Size() int { return len(p.Members) }

// MemberIDs returns member node IDs in ascending order.
func (p *Plan) MemberIDs() []int {
	ids := make([]int, 0, len(p.Members))
	for id := range p.Members {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// ExternalInputs returns the distinct nodes outside the plan that feed plan
// members, in ascending ID order. These are the matrices the fused operator
// consolidates to its tasks.
func (p *Plan) ExternalInputs() []*dag.Node {
	seen := map[int]*dag.Node{}
	for _, n := range p.Members {
		for _, in := range n.Inputs {
			if !p.Contains(in) {
				seen[in.ID] = in
			}
		}
	}
	out := make([]*dag.Node, 0, len(seen))
	for _, n := range seen {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// MatMuls returns all member matrix multiplications in ascending ID order.
func (p *Plan) MatMuls() []*dag.Node {
	var out []*dag.Node
	for _, id := range p.MemberIDs() {
		if p.Members[id].Op == dag.OpMatMul {
			out = append(out, p.Members[id])
		}
	}
	return out
}

// Folded reports whether the member transpose n is read where its child's
// blocks lie and never built: its one consumer is a multiplication whose
// kernel takes that operand transposed — the dense products their left
// operand, through swapped strides; the masked SDDMM (masked is the main
// multiplication of an outer-fusion plan, nil for none) its right operand, as
// the rows of the child. The executor folds exactly these transposes and
// meters them at no flops (a CSR child block under a folded left operand is
// still built, and metered, at run time). The cost model keeps Eq. 5's
// nnz(child) per replica for every member transpose: pricing folded ones at
// zero removes the only term that tells the NMF kernel's (P,1,1) and (1,Q,1)
// apart, and moves the repository benchmark's nmfk_sim plan.
func (p *Plan) Folded(n, masked *dag.Node) bool {
	cs := n.Consumers()
	if n.Op != dag.OpTranspose || n == p.Root || !p.Contains(n) || len(cs) != 1 {
		return false
	}
	c := cs[0]
	return c.Op == dag.OpMatMul && c.Inputs[0] != c.Inputs[1] && (c.Inputs[1] == n) == (c == masked)
}

// Validate checks the structural invariants of a partial fusion plan:
// the member set is a tree rooted at Root (every non-root member has exactly
// one consumer, which is also a member), members are operators (not leaves),
// and aggregations appear only at the root.
func (p *Plan) Validate() error {
	if p.Root == nil || len(p.Members) == 0 {
		return fmt.Errorf("fusion: empty plan")
	}
	if !p.Contains(p.Root) {
		return fmt.Errorf("fusion: root %d not a member", p.Root.ID)
	}
	for _, n := range p.Members {
		if n.IsLeaf() {
			return fmt.Errorf("fusion: leaf node %d (%s) cannot be a plan member", n.ID, n.Label())
		}
		if n.Op == dag.OpUnaryAgg && n != p.Root {
			return fmt.Errorf("fusion: aggregation %d (%s) must be the plan root", n.ID, n.Label())
		}
		if n == p.Root {
			continue
		}
		consumersInPlan := 0
		for _, c := range n.Consumers() {
			if p.Contains(c) {
				consumersInPlan++
			}
		}
		if consumersInPlan != 1 || len(n.Consumers()) != 1 {
			return fmt.Errorf("fusion: member %d (%s) has %d consumers (%d in plan); only the root may fan out",
				n.ID, n.Label(), len(n.Consumers()), consumersInPlan)
		}
	}
	// Connectivity: everything must be reachable from the root within the
	// member set.
	reached := map[int]bool{}
	var walk func(n *dag.Node)
	walk = func(n *dag.Node) {
		if !p.Contains(n) || reached[n.ID] {
			return
		}
		reached[n.ID] = true
		for _, in := range n.Inputs {
			walk(in)
		}
	}
	walk(p.Root)
	if len(reached) != len(p.Members) {
		return fmt.Errorf("fusion: plan is not connected (%d of %d reachable from root)", len(reached), len(p.Members))
	}
	return nil
}

// ChooseMainMM returns the plan's main matrix multiplication: among the
// multiplications reachable from the root without crossing another
// multiplication (so the root stays in the main multiplication's output
// plane, as the executor's O-space partitioning requires), the one with the
// largest voxel count I*J*K (Algorithm 3, line 3). Returns nil if the plan
// has none.
func ChooseMainMM(p *Plan) *dag.Node {
	var best *dag.Node
	var bestVoxels int64
	var walk func(n *dag.Node)
	walk = func(n *dag.Node) {
		if !p.Contains(n) {
			return
		}
		if n.Op == dag.OpMatMul {
			v := int64(n.Rows) * int64(n.Cols) * int64(n.Inputs[0].Cols)
			if best == nil || v > bestVoxels {
				best, bestVoxels = n, v
			}
			return // deeper multiplications become nested spaces
		}
		for _, in := range n.Inputs {
			walk(in)
		}
	}
	walk(p.Root)
	return best
}

// Classify returns the fusion type of the plan (informational; used by plan
// displays and by the GEN baseline's template matching).
func (p *Plan) Classify() Type {
	if p.Root.Op == dag.OpUnaryAgg {
		return MultiAgg
	}
	if p.MainMM == nil {
		return Cell
	}
	if m := FindOuterMask(p); m != nil {
		return Outer
	}
	return Row
}

// IsTermination reports whether n is a termination operator with respect to
// the per-task memory budget taskMem (Section 4.1): either it has more than
// one consumer (its output is a materialisation point), or it is a unary
// aggregation whose input is too large to aggregate without a shuffle.
func IsTermination(n *dag.Node, taskMem int64) bool {
	if n.NumConsumers() > 1 {
		return true
	}
	if n.Op == dag.OpUnaryAgg && n.Inputs[0].EstSizeBytes() > taskMem {
		return true
	}
	return false
}

// OuterMask describes a detected outer-fusion opportunity: Mul is a member
// element-wise multiplication whose Driver operand is a sparse external
// input and whose other operand subtree reaches the plan's main matrix
// multiplication through element-wise operators only. The executor evaluates
// that subtree in masked form over Driver's non-zero pattern.
type OuterMask struct {
	Mul    *dag.Node // the b(*) node
	Driver *dag.Node // the sparse external operand
	Inner  *dag.Node // the operand subtree evaluated under the mask
}

// FindOuterMask detects the outer-fusion pattern in p, returning nil when
// none applies. Requirements: p has a main matmul; some member b(*) has one
// sparse driver operand (estimated density below OuterSparsityThreshold)
// shaped like the multiplication output — either an external input or a
// member subtree that does not reach the main multiplication, such as the
// (X != 0) pattern of the ALS weighted squared loss; the other operand
// reaches MainMM through member unary/binary operators only (no transpose,
// no nested matmul on the path).
func FindOuterMask(p *Plan) *OuterMask {
	if p.MainMM == nil {
		return nil
	}
	for _, id := range p.MemberIDs() {
		n := p.Members[id]
		if n.Op != dag.OpBinary || n.BinOp != matrix.Mul {
			continue
		}
		for i, cand := range n.Inputs {
			other := n.Inputs[1-i]
			if cand.Sparsity >= OuterSparsityThreshold {
				continue
			}
			if cand.Rows != n.Rows || cand.Cols != n.Cols {
				continue
			}
			if p.Contains(cand) && subtreeContainsMM(p, cand) {
				continue // both sides reach the multiplication
			}
			if p.Contains(other) && reachesMMElementwise(p, other) {
				return &OuterMask{Mul: n, Driver: cand, Inner: other}
			}
		}
	}
	return nil
}

// subtreeContainsMM reports whether the member subtree rooted at n contains
// the plan's main matmul through any operator kind.
func subtreeContainsMM(p *Plan, n *dag.Node) bool {
	if n == p.MainMM {
		return true
	}
	if !p.Contains(n) {
		return false
	}
	for _, in := range n.Inputs {
		if subtreeContainsMM(p, in) {
			return true
		}
	}
	return false
}

// reachesMMElementwise reports whether the member subtree rooted at n
// contains the plan's main matmul, reachable through unary/binary member
// nodes only.
func reachesMMElementwise(p *Plan, n *dag.Node) bool {
	if n == p.MainMM {
		return true
	}
	if !p.Contains(n) {
		return false
	}
	switch n.Op {
	case dag.OpUnary, dag.OpBinary:
		for _, in := range n.Inputs {
			if reachesMMElementwise(p, in) {
				return true
			}
		}
	}
	return false
}

// String renders a compact description, e.g.
// "Plan{root=b(*), 5 ops, type=Outer, mm=ba(x)#3}".
func (p *Plan) String() string {
	mm := "none"
	if p.MainMM != nil {
		mm = fmt.Sprintf("%s#%d", p.MainMM.Label(), p.MainMM.ID)
	}
	return fmt.Sprintf("Plan{root=%s#%d, %d ops, type=%s, mm=%s}",
		p.Root.Label(), p.Root.ID, p.Size(), p.Classify(), mm)
}
