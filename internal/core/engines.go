package core

import (
	"fmt"

	"fuseme/internal/baselines"
	"fuseme/internal/cfg"
	"fuseme/internal/cluster"
	"fuseme/internal/cost"
	"fuseme/internal/dag"
	"fuseme/internal/exec"
	"fuseme/internal/fusion"
	"fuseme/internal/opt"
)

// gridOp builds the physical operator for a plan without matrix
// multiplication (or any plan executed as a partitioned map).
func gridOp(p *fusion.Plan, cc cluster.Config, kind string) *PhysOp {
	return &PhysOp{Plan: p, Strategy: exec.Cuboid, Kind: kind,
		Est: cost.ElementwiseEstimates(p, cc.TotalSlots())}
}

// FuseME is the paper's engine: CFG plan generation + CFO fused operators.
// The zero value is the system as published; the flags enable the paper's
// future-work load-balancing extension and the sparsity-exploitation
// ablation.
type FuseME struct {
	// Balanced partitions the i/j axes by the sparse driver's non-zero
	// distribution instead of equal widths.
	Balanced bool
	// NoMask disables outer-fusion masking (dense evaluation), for ablation.
	NoMask bool
}

// Name implements Engine.
func (f FuseME) Name() string {
	switch {
	case f.Balanced:
		return "FuseME-balanced"
	case f.NoMask:
		return "FuseME-nomask"
	}
	return "FuseME"
}

// Compile implements Engine.
// It plans a copy of g in which each consumer of a shared input transpose
// has its own (cfg.SplitInputTransposes); the plan's Graph is that copy.
func (f FuseME) Compile(g *dag.Graph, cc cluster.Config) (*PhysPlan, error) {
	g = cfg.SplitInputTransposes(g)
	res, err := cfg.Generate(g, cc)
	if err != nil {
		return nil, err
	}
	pp := &PhysPlan{Graph: g}
	for _, p := range res.Set.Plans {
		if p.MainMM == nil {
			pp.Ops = append(pp.Ops, gridOp(p, cc, "Map"))
			continue
		}
		params, ok := res.Params[p]
		if !ok {
			params = opt.Optimize(cc, cost.Analyze(p, cc.BlockSize))
		}
		pp.Ops = append(pp.Ops, &PhysOp{
			Plan: p, Strategy: exec.Cuboid, Kind: "CFO",
			P: params.P, Q: params.Q, R: params.R,
			Balance: f.Balanced, NoMask: f.NoMask, Est: params.OpEstimates,
		})
	}
	pp.Ops = groupMultiAgg(pp.Ops, cc)
	return lowered(pp, cc)
}

// lowered returns pp with every operator lowered for cc.
func lowered(pp *PhysPlan, cc cluster.Config) (*PhysPlan, error) {
	if err := pp.Lower(cc); err != nil {
		return nil, err
	}
	return pp, nil
}

// SystemDSSim reproduces SystemDS: GEN fusion plans executed with BFO or
// RFO, selected by the paper's rule — BFO when the main matrix has fewer
// partitions than the output grid is wide or tall, RFO otherwise.
type SystemDSSim struct{}

// Name implements Engine.
func (SystemDSSim) Name() string { return "SystemDS" }

// Compile implements Engine.
func (SystemDSSim) Compile(g *dag.Graph, cc cluster.Config) (*PhysPlan, error) {
	rule := fusion.RuleFor(g, cc.TaskMemBytes)
	set := baselines.GENGenerate(g, rule)
	if err := set.Validate(g); err != nil {
		return nil, fmt.Errorf("gen: %w", err)
	}
	pp := &PhysPlan{Graph: g}
	slots := cc.TotalSlots()
	for _, p := range set.Plans {
		if p.MainMM == nil {
			pp.Ops = append(pp.Ops, gridOp(p, cc, "Map"))
			continue
		}
		gi, gj, _ := p.BlockGridDims(cc.BlockSize)
		if useBFO(p, gi, gj) {
			pp.Ops = append(pp.Ops, &PhysOp{Plan: p, Strategy: exec.Broadcast, Kind: "BFO",
				Est: cost.BFOEstimates(p, slots)})
		} else {
			pp.Ops = append(pp.Ops, &PhysOp{Plan: p, Strategy: exec.Cuboid, Kind: "RFO",
				P: gi, Q: gj, R: 1, Est: cost.RFOEstimates(p, cc.BlockSize)})
		}
	}
	pp.Ops = groupMultiAgg(pp.Ops, cc)
	return lowered(pp, cc)
}

// broadcastLimitBytes approximates Spark's practical broadcast ceiling:
// side matrices comfortably below it are always broadcast (mapmm), as
// SystemDS prefers.
const broadcastLimitBytes = 2 << 30

// smallGridBlocks is the output-grid size below which broadcasting cannot
// pay off: with so few output blocks a CPMM-style shuffle (the RFO at a
// trivial grid moves each input once) always beats T-fold side broadcast,
// so SystemDS keeps the shuffle-based operator there.
const smallGridBlocks = 16

// useBFO implements the SystemDS selection rule (Section 6.2): broadcast
// when the main matrix repartitions into fewer partitions than the output
// grid's width or height — unless the output grid is trivially small, where
// the shuffle-based operator wins; RFO otherwise.
func useBFO(p *fusion.Plan, gi, gj int) bool {
	main := cost.MainInput(p)
	if main == nil {
		return true
	}
	if gi*gj <= smallGridBlocks {
		return false
	}
	parts := int(cost.SparkSizeBytes(main)/cost.PartitionBytes) + 1
	return parts < gi || parts < gj
}

// DistMESim reproduces DistME: no operator fusion; every multiplication runs
// as a standalone CuboidMM with its own optimal (P,Q,R), every other
// operator as a partitioned map, and every intermediate materialises.
type DistMESim struct{}

// Name implements Engine.
func (DistMESim) Name() string { return "DistME" }

// Compile implements Engine.
func (DistMESim) Compile(g *dag.Graph, cc cluster.Config) (*PhysPlan, error) {
	set := baselines.DistMEGenerate(g)
	if err := set.Validate(g); err != nil {
		return nil, fmt.Errorf("distme: %w", err)
	}
	pp := &PhysPlan{Graph: g}
	for _, p := range set.Plans {
		if p.MainMM == nil {
			pp.Ops = append(pp.Ops, gridOp(p, cc, "Map"))
			continue
		}
		params := opt.Optimize(cc, cost.Analyze(p, cc.BlockSize))
		pp.Ops = append(pp.Ops, &PhysOp{Plan: p, Strategy: exec.Cuboid, Kind: "CuboidMM",
			P: params.P, Q: params.Q, R: params.R, Est: params.OpEstimates})
	}
	return lowered(pp, cc)
}

// MatFastSim reproduces MatFast: folded element-wise operators; every
// multiplication runs broadcast-style (and fails admission when the side
// matrices exceed the task budget — MatFast has no partitioning knob).
type MatFastSim struct{}

// Name implements Engine.
func (MatFastSim) Name() string { return "MatFast" }

// Compile implements Engine.
func (MatFastSim) Compile(g *dag.Graph, cc cluster.Config) (*PhysPlan, error) {
	return compileElementwiseFusedBroadcast(g, cc, "MatFast")
}

// TensorFlowSim approximates TensorFlow XLA for the AutoEncoder comparison:
// element-wise fusion (XLA's fused kernels) with broadcast data-parallel
// execution. Experiments run it on a cluster variant with a higher local
// compute bandwidth, reflecting XLA's code generation.
type TensorFlowSim struct{}

// Name implements Engine.
func (TensorFlowSim) Name() string { return "TensorFlow" }

// Compile implements Engine.
func (TensorFlowSim) Compile(g *dag.Graph, cc cluster.Config) (*PhysPlan, error) {
	return compileElementwiseFusedBroadcast(g, cc, "XLA")
}

func compileElementwiseFusedBroadcast(g *dag.Graph, cc cluster.Config, mmKind string) (*PhysPlan, error) {
	rule := fusion.RuleFor(g, cc.TaskMemBytes)
	set := baselines.MatFastGenerate(g, rule)
	if err := set.Validate(g); err != nil {
		return nil, fmt.Errorf("%s: %w", mmKind, err)
	}
	pp := &PhysPlan{Graph: g}
	slots := cc.TotalSlots()
	for _, p := range set.Plans {
		if p.MainMM == nil {
			pp.Ops = append(pp.Ops, gridOp(p, cc, "Fold"))
			continue
		}
		pp.Ops = append(pp.Ops, &PhysOp{Plan: p, Strategy: exec.Broadcast, Kind: mmKind,
			Est: cost.BFOEstimates(p, slots)})
	}
	return lowered(pp, cc)
}

// groupMultiAgg rewrites runs of aggregation operators into Multi-aggregation
// fused operators (Figure 2(d)): plans that are aggregation-rooted, free of
// matrix multiplication, aggregate over the same plane, share at least one
// input matrix and depend only on query inputs execute as one distributed
// operator with multiple outputs, scanning the shared inputs once. Both
// FuseME (CFG) and SystemDS (GEN) support this fusion type.
func groupMultiAgg(ops []*PhysOp, cc cluster.Config) []*PhysOp {
	type bucketKey struct{ rows, cols int }
	buckets := map[bucketKey][]*PhysOp{}
	for _, op := range ops {
		p := op.Plan
		if len(op.Group) > 0 || op.Strategy != exec.Cuboid || p.MainMM != nil ||
			p.Root.Op != dag.OpUnaryAgg {
			continue
		}
		onlyInputs := true
		for _, in := range p.ExternalInputs() {
			if in.Op != dag.OpInput && in.Op != dag.OpScalar {
				onlyInputs = false
				break
			}
		}
		if !onlyInputs {
			continue
		}
		child := p.Root.Inputs[0]
		buckets[bucketKey{child.Rows, child.Cols}] = append(buckets[bucketKey{child.Rows, child.Cols}], op)
	}

	grouped := map[*PhysOp]bool{}
	replacement := map[*PhysOp]*PhysOp{}
	for _, cand := range buckets {
		if len(cand) < 2 {
			continue
		}
		// Greedy grouping: an op joins the group when it shares a non-scalar
		// input with any member.
		used := make([]bool, len(cand))
		for i := range cand {
			if used[i] {
				continue
			}
			group := []*PhysOp{cand[i]}
			inputs := inputIDSet(cand[i].Plan)
			used[i] = true
			for changed := true; changed; {
				changed = false
				for j := range cand {
					// exec.MultiAggOp takes at most 64 plans (an output's index
					// rides in six bits of its result frames); the rest regroup.
					if used[j] || len(group) == 64 || !sharesInput(inputs, cand[j].Plan) {
						continue
					}
					group = append(group, cand[j])
					for id := range inputIDSet(cand[j].Plan) {
						inputs[id] = true
					}
					used[j] = true
					changed = true
				}
			}
			if len(group) < 2 {
				continue
			}
			plans := make([]*fusion.Plan, len(group))
			for k, g := range group {
				plans[k] = g.Plan
			}
			merged := &PhysOp{Plan: plans[0], Group: plans, Strategy: exec.Cuboid,
				Kind: "MultiAgg", Est: multiAggEstimates(group, cc)}
			replacement[group[0]] = merged
			for _, g := range group {
				grouped[g] = true
			}
		}
	}
	if len(grouped) == 0 {
		return ops
	}
	out := make([]*PhysOp, 0, len(ops))
	for _, op := range ops {
		if m, ok := replacement[op]; ok {
			out = append(out, m)
			continue
		}
		if grouped[op] {
			continue
		}
		out = append(out, op)
	}
	return out
}

func inputIDSet(p *fusion.Plan) map[int]bool {
	s := map[int]bool{}
	for _, in := range p.ExternalInputs() {
		if in.Op != dag.OpScalar {
			s[in.ID] = true
		}
	}
	return s
}

func sharesInput(inputs map[int]bool, p *fusion.Plan) bool {
	for _, in := range p.ExternalInputs() {
		if in.Op != dag.OpScalar && inputs[in.ID] {
			return true
		}
	}
	return false
}

// multiAggEstimates charges the union of the group's inputs once:
// plane-shaped inputs are co-partitioned (free), others transfer once, and
// every sum shuffles its partial aggregates; the flops are the members'; the
// per-task working set is one partition's share of the distinct inputs.
func multiAggEstimates(group []*PhysOp, cc cluster.Config) cost.OpEstimates {
	child := group[0].Plan.Root.Inputs[0]
	seen := map[int]bool{}
	var e cost.OpEstimates
	var inBytes int64
	tasks := cc.TotalSlots()
	for _, op := range group {
		for _, in := range op.Plan.ExternalInputs() {
			if in.Op == dag.OpScalar || seen[in.ID] {
				continue
			}
			seen[in.ID] = true
			inBytes += in.EstSizeBytes()
			if in.Rows != child.Rows || in.Cols != child.Cols {
				e.NetBytes += in.EstSizeBytes()
			}
		}
		e.AggBytes += cost.RootPartialBytes(op.Plan, tasks)
		e.ComFlops += op.Est.ComFlops
	}
	e.NetBytes += e.AggBytes
	parts := int64(tasks)
	if byParts := (inBytes + cost.PartitionBytes - 1) / cost.PartitionBytes; byParts > parts {
		parts = byParts
	}
	e.MemPerTask = inBytes/parts + 1
	return e
}
