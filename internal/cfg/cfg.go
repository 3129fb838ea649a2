// Package cfg implements the Cuboid-based Fusion plan Generator (Section 4):
// the exploration phase (Algorithm 2) grows candidate partial fusion plans
// around every matrix multiplication, fusing across termination operators
// only at the top; the exploitation phase (Algorithm 3) splits a candidate
// at secondary multiplications whenever two smaller plans are cheaper than
// one under the CFO cost model.
//
// Unlike GEN (the SystemDS generator reproduced in the baselines package),
// CFG happily keeps large-scale matrix multiplications inside fusion plans,
// because the CFO's (P,Q,R) knob bounds per-task memory.
package cfg

import (
	"fmt"
	"sort"
	"sync/atomic"

	"fuseme/internal/cluster"
	"fuseme/internal/cost"
	"fuseme/internal/dag"
	"fuseme/internal/fusion"
	"fuseme/internal/opt"
)

// generateCalls counts Generate invocations process-wide. The plan cache's
// end-to-end tests read it to prove repeat queries skip CFG exploration.
var generateCalls atomic.Int64

// GenerateCalls returns how many times Generate has run in this process.
func GenerateCalls() int64 { return generateCalls.Load() }

// Result carries the generated plan set plus the chosen parameters for each
// matmul-bearing plan.
type Result struct {
	Set    fusion.Set
	Params map[*fusion.Plan]opt.Result // only for plans with a main matmul
}

// Generate runs both CFG phases over g and then covers the remaining
// operators with Cell-fused chains and singletons, so the returned set
// partitions the whole query. Plans are priced on cluster cc at its block
// size.
func Generate(g *dag.Graph, cc cluster.Config) (*Result, error) {
	generateCalls.Add(1)
	rule := fusion.RuleFor(g, cc.TaskMemBytes)
	candidates := ExplorationPhase(g, rule)
	final, params := ExploitationPhase(candidates, cc)

	used := map[int]bool{}
	for _, p := range final {
		for id := range p.Members {
			used[id] = true
		}
	}
	res := &Result{Params: params}
	res.Set.Plans = final
	res.Set.Plans = append(res.Set.Plans, fusion.CellFuse(g, used, rule)...)
	res.Set.Plans = append(res.Set.Plans, fusion.Singletons(g, used)...)
	res.Set.Sort()
	if err := res.Set.Validate(g); err != nil {
		return nil, fmt.Errorf("cfg: generated plan set invalid: %w", err)
	}
	return res, nil
}

// SplitInputTransposes gives each consumer of a shared transpose of a query
// input, such as GNMF's twice-written t(V), a t(A) node of its own
// (dag.Graph.Unshare). The transpose then no longer terminates fusion: it
// joins each consuming operator as a member, which reads A's blocks where
// they lie, instead of running as a Map stage of its own as the paper's
// Figure 10(b) v0 does. A shared transpose of a computed intermediate stays
// one node, since each copy would recompute it. FuseME's Compile calls this
// before Generate; the baselines plan the graph as written.
func SplitInputTransposes(g *dag.Graph) *dag.Graph {
	return g.Unshare(isInputTranspose)
}

func isInputTranspose(n *dag.Node) bool {
	return n.Op == dag.OpTranspose && n.Inputs[0].Op == dag.OpInput
}

// ExplorationPhase is Algorithm 2: starting from each matrix multiplication,
// grow a candidate plan through adjacent non-termination operators; a
// termination operator may join only as the plan's top. Aggregations always
// cap a plan (the executor evaluates them as plan roots).
func ExplorationPhase(g *dag.Graph, rule fusion.TermRule) []*fusion.Plan {
	reach := g.ReachableFromOutputs()
	inWorkload := map[int]bool{}
	var matmuls []*dag.Node
	for _, n := range g.Nodes() {
		if n.IsLeaf() || !reach[n.ID] {
			continue
		}
		inWorkload[n.ID] = true
		if n.Op == dag.OpMatMul {
			matmuls = append(matmuls, n)
		}
	}

	var plans []*fusion.Plan
	for _, vm := range matmuls {
		if !inWorkload[vm.ID] {
			continue // already absorbed into an earlier plan
		}
		members := map[int]*dag.Node{vm.ID: vm}
		inWorkload[vm.ID] = false
		top := false
		rejected := map[int]bool{}

		for {
			adj := adjacent(members, top, inWorkload, rejected)
			if len(adj) == 0 {
				break
			}
			for _, vi := range adj {
				outgoing := isOutgoing(vi, members)
				capsPlan := rule.IsTermination(vi) || vi.Op == dag.OpUnaryAgg
				switch {
				case !capsPlan && vi.Op != dag.OpUnaryAgg:
					members[vi.ID] = vi
					inWorkload[vi.ID] = false
				case outgoing && !top && hasSingleRootCandidate(members, vi):
					// A termination operator (or aggregation) joins as top.
					members[vi.ID] = vi
					inWorkload[vi.ID] = false
					top = true
				default:
					rejected[vi.ID] = true
				}
			}
		}
		root := rootOf(members)
		p, err := fusion.NewPlan(root, members)
		if err != nil {
			// A growth step violated an invariant; fall back to the bare
			// multiplication (always valid).
			for id := range members {
				if id != vm.ID {
					inWorkload[id] = true
				}
			}
			p, err = fusion.NewPlan(vm, map[int]*dag.Node{vm.ID: vm})
			if err != nil {
				continue
			}
		}
		plans = append(plans, p)
	}
	return plans
}

// adjacent returns the operators adjacent to the member set: consumers of
// members (outgoing) unless top is already fixed, plus operator inputs of
// members (incoming); leaves, used and rejected nodes are excluded. The
// order is deterministic (ascending ID).
func adjacent(members map[int]*dag.Node, top bool, inWorkload, rejected map[int]bool) []*dag.Node {
	seen := map[int]*dag.Node{}
	for _, n := range members {
		if !top {
			for _, c := range n.Consumers() {
				if inWorkload[c.ID] && !rejected[c.ID] && members[c.ID] == nil {
					seen[c.ID] = c
				}
			}
		}
		for _, in := range n.Inputs {
			if in.IsLeaf() {
				continue
			}
			if inWorkload[in.ID] && !rejected[in.ID] && members[in.ID] == nil {
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

// isOutgoing reports whether vi consumes a member (parent direction).
func isOutgoing(vi *dag.Node, members map[int]*dag.Node) bool {
	for _, in := range vi.Inputs {
		if members[in.ID] != nil {
			return true
		}
	}
	return false
}

// hasSingleRootCandidate checks that adding vi as top keeps the plan a tree:
// vi must consume the current unique root.
func hasSingleRootCandidate(members map[int]*dag.Node, vi *dag.Node) bool {
	root := rootOf(members)
	if root == nil {
		return false
	}
	for _, in := range vi.Inputs {
		if in == root {
			return true
		}
	}
	return false
}

// rootOf returns the unique member without an in-set consumer, or nil.
func rootOf(members map[int]*dag.Node) *dag.Node {
	var root *dag.Node
	for _, n := range members {
		consumed := false
		for _, c := range n.Consumers() {
			if members[c.ID] != nil {
				consumed = true
				break
			}
		}
		if consumed {
			continue
		}
		if root != nil {
			return nil // two roots: not a tree rooted at one operator
		}
		root = n
	}
	return root
}

// ExploitationPhase is Algorithm 3: for each candidate with secondary
// multiplications, try splitting the most distant multiplication (by hops
// from the main one) out into its own plan; keep the split when the summed
// optimal costs improve. Returns the final plans and the optimal parameters
// for every matmul-bearing plan.
func ExploitationPhase(candidates []*fusion.Plan, cc cluster.Config) ([]*fusion.Plan, map[*fusion.Plan]opt.Result) {
	params := map[*fusion.Plan]opt.Result{}
	var final []*fusion.Plan
	queue := append([]*fusion.Plan(nil), candidates...)
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		if f.MainMM == nil {
			final = append(final, f)
			continue
		}
		best := opt.Optimize(cc, cost.Analyze(f, cc.BlockSize))
		splitPoints := secondaryMatMuls(f)
		for _, vi := range splitPoints {
			if f.Members[vi.ID] == nil {
				continue // already split away
			}
			fm, fi, err := split(f, vi)
			if err != nil {
				continue
			}
			rm := opt.Optimize(cc, cost.Analyze(fm, cc.BlockSize))
			ri := opt.Optimize(cc, cost.Analyze(fi, cc.BlockSize))
			if rm.Cost+ri.Cost < best.Cost {
				queue = append(queue, fi) // fi may itself split further
				f, best = fm, rm
			}
		}
		params[f] = best
		final = append(final, f)
	}
	return final, params
}

// secondaryMatMuls returns the plan's multiplications except the main one,
// sorted by descending hop distance from the main multiplication — the
// paper's heuristic: the most distant multiplication is replicated the most
// and so is split first.
func secondaryMatMuls(f *fusion.Plan) []*dag.Node {
	var out []*dag.Node
	dist := hopDistances(f)
	for _, mm := range f.MatMuls() {
		if mm != f.MainMM {
			out = append(out, mm)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if dist[out[i].ID] != dist[out[j].ID] {
			return dist[out[i].ID] > dist[out[j].ID]
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// hopDistances computes undirected hop counts from the main multiplication
// within the member tree.
func hopDistances(f *fusion.Plan) map[int]int {
	dist := map[int]int{f.MainMM.ID: 0}
	frontier := []*dag.Node{f.MainMM}
	for len(frontier) > 0 {
		var next []*dag.Node
		for _, n := range frontier {
			d := dist[n.ID]
			var neigh []*dag.Node
			neigh = append(neigh, n.Inputs...)
			neigh = append(neigh, n.Consumers()...)
			for _, m := range neigh {
				if f.Members[m.ID] == nil {
					continue
				}
				if _, seen := dist[m.ID]; seen {
					continue
				}
				dist[m.ID] = d + 1
				next = append(next, m)
			}
		}
		frontier = next
	}
	return dist
}

// split divides f at vi: fi is the member subtree rooted at vi, fm the rest
// (vi's output becomes a materialised input of fm).
func split(f *fusion.Plan, vi *dag.Node) (fm, fi *fusion.Plan, err error) {
	sub := map[int]*dag.Node{}
	var collect func(n *dag.Node)
	collect = func(n *dag.Node) {
		if f.Members[n.ID] == nil || sub[n.ID] != nil {
			return
		}
		sub[n.ID] = n
		for _, in := range n.Inputs {
			collect(in)
		}
	}
	collect(vi)
	rest := map[int]*dag.Node{}
	for id, n := range f.Members {
		if sub[id] == nil {
			rest[id] = n
		}
	}
	if len(rest) == 0 {
		return nil, nil, fmt.Errorf("cfg: splitting %d would empty the plan", vi.ID)
	}
	fi, err = fusion.NewPlan(vi, sub)
	if err != nil {
		return nil, nil, err
	}
	fm, err = fusion.NewPlan(f.Root, rest)
	if err != nil {
		return nil, nil, err
	}
	return fm, fi, nil
}
