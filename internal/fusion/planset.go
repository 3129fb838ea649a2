package fusion

import (
	"fmt"
	"sort"

	"fuseme/internal/dag"
)

// TermRule decides which operators are termination operators (Section 4.1)
// for a particular query: multi-consumer operators (materialisation points),
// named query outputs that are also consumed downstream, and unary
// aggregations whose input is too large to aggregate without a shuffle.
type TermRule struct {
	TaskMemBytes int64
	OutputIDs    map[int]bool // node IDs registered as query outputs
}

// RuleFor builds the termination rule for a graph under a task budget.
func RuleFor(g *dag.Graph, taskMemBytes int64) TermRule {
	outs := make(map[int]bool, len(g.Outputs()))
	for _, n := range g.Outputs() {
		outs[n.ID] = true
	}
	return TermRule{TaskMemBytes: taskMemBytes, OutputIDs: outs}
}

// IsTermination reports whether n terminates fusion (it may still be fused
// as the top operator of a plan).
func (r TermRule) IsTermination(n *dag.Node) bool {
	if n.NumConsumers() > 1 {
		return true
	}
	if r.OutputIDs[n.ID] && n.NumConsumers() > 0 {
		return true
	}
	if n.Op == dag.OpUnaryAgg && n.Inputs[0].EstSizeBytes() > r.TaskMemBytes {
		return true
	}
	return false
}

// Set is a complete partition of a query DAG's operators into partial fusion
// plans (singletons for operators left unfused), ordered for execution.
type Set struct {
	Plans []*Plan
}

// Sort orders the plans topologically. Because builder node IDs increase
// along data flow and every plan's root carries the plan's maximum ID,
// ascending root ID is a valid topological order.
func (s *Set) Sort() {
	sort.Slice(s.Plans, func(i, j int) bool { return s.Plans[i].Root.ID < s.Plans[j].Root.ID })
}

// Validate checks that the set covers every operator reachable from the
// graph's outputs exactly once and that each plan is internally valid.
func (s *Set) Validate(g *dag.Graph) error {
	covered := map[int]int{}
	for _, p := range s.Plans {
		if err := p.Validate(); err != nil {
			return err
		}
		for id := range p.Members {
			covered[id]++
		}
	}
	reach := g.ReachableFromOutputs()
	for _, n := range g.Nodes() {
		if n.IsLeaf() || !reach[n.ID] {
			continue
		}
		switch covered[n.ID] {
		case 0:
			return fmt.Errorf("fusion: operator %d (%s) not covered by any plan", n.ID, n.Label())
		case 1:
		default:
			return fmt.Errorf("fusion: operator %d (%s) covered by %d plans", n.ID, n.Label(), covered[n.ID])
		}
	}
	return nil
}

// fusableCell reports whether n may join a Cell (element-wise) fusion body:
// unary, binary and transpose operators qualify.
func fusableCell(n *dag.Node) bool {
	switch n.Op {
	case dag.OpUnary, dag.OpBinary, dag.OpTranspose:
		return true
	}
	return false
}

// CellFuse greedily fuses chains of consecutive element-wise operators
// (Cell fusion) among the not-yet-used operators of g, honouring the
// termination rule. Aggregations may cap a chain as its root. Every operator
// it consumes is marked in used. This is both MatFast's folded-operator
// generator and the residual pass of the other planners.
func CellFuse(g *dag.Graph, used map[int]bool, rule TermRule) []*Plan {
	var plans []*Plan
	reach := g.ReachableFromOutputs()
	// Seed from the highest IDs down so chains grow from their tops.
	nodes := g.Nodes()
	for i := len(nodes) - 1; i >= 0; i-- {
		seed := nodes[i]
		if used[seed.ID] || seed.IsLeaf() || !reach[seed.ID] {
			continue
		}
		if !fusableCell(seed) && seed.Op != dag.OpUnaryAgg {
			continue
		}
		if seed.Op == dag.OpUnaryAgg && rule.IsTermination(seed) {
			continue // large aggregation: runs as its own shuffling operator
		}
		members := map[int]*dag.Node{seed.ID: seed}
		// Grow downward through non-termination element-wise operators.
		var grow func(n *dag.Node)
		grow = func(n *dag.Node) {
			for _, in := range n.Inputs {
				if in.IsLeaf() || used[in.ID] || members[in.ID] != nil {
					continue
				}
				if !fusableCell(in) || rule.IsTermination(in) {
					continue
				}
				members[in.ID] = in
				grow(in)
			}
		}
		grow(seed)
		p, err := NewPlan(seed, members)
		if err != nil {
			// Should not happen; fall back to a singleton.
			p, err = NewPlan(seed, map[int]*dag.Node{seed.ID: seed})
			if err != nil {
				continue
			}
		}
		for id := range p.Members {
			used[id] = true
		}
		plans = append(plans, p)
	}
	return plans
}

// Singletons wraps every remaining reachable operator of g in its own
// single-operator plan (the unfused execution of DistME and of operators no
// generator claimed).
func Singletons(g *dag.Graph, used map[int]bool) []*Plan {
	var plans []*Plan
	reach := g.ReachableFromOutputs()
	for _, n := range g.Nodes() {
		if n.IsLeaf() || used[n.ID] || !reach[n.ID] {
			continue
		}
		p, err := NewPlan(n, map[int]*dag.Node{n.ID: n})
		if err != nil {
			continue
		}
		used[n.ID] = true
		plans = append(plans, p)
	}
	return plans
}
