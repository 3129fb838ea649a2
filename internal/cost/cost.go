// Package cost implements the cost model for distributed fused operators
// (Section 3.3): per-task memory estimation MemEst (Algorithm 1, Eq. 3),
// network cost NetEst (Eq. 4), computation cost ComEst (Eq. 5) and the
// combined objective Cost (Eq. 2, priced by cluster.Config.Eq2 like every
// other Eq. 2 figure), plus the closed-form BFO and RFO
// estimates of Table 1 used by the SystemDS baseline.
//
// The multipliers generalise the paper's equations to arbitrarily nested
// model spaces using the replication physics its Figure 11 describes: a
// vertex whose space is partitioned on a set A of the global axes {P, Q, R}
// is replicated to prod(stage \ A) tasks, holds a 1/prod(A) per-task share,
// and its operator work repeats prod(stage \ A) times. For the top-level
// L-/R-spaces this reduces exactly to Eq. 3-5 (multipliers Q and P, shares
// 1/(P*R) and 1/(Q*R)); for nested spaces it reproduces Figure 11's
// "replicated to Q*R tasks". O-space vertices are charged once (the executor
// aggregates partial multiplication results before the O-chain runs; the
// R>1 aggregation shuffle of (R-1)*|MM| bytes is charged instead — see
// DESIGN.md for this deviation from the paper's R-fold O-space terms).
//
// Every estimate is a sum of terms proportional to products of subsets of
// {P,Q,R} (net, compute) or their reciprocals (memory), so Analyze extracts
// symbolic coefficients in one traversal and evaluating a candidate (P,Q,R)
// is O(1) — which is what makes both optimizer search strategies fast.
package cost

import (
	"fuseme/internal/cluster"
	"fuseme/internal/dag"
	"fuseme/internal/fusion"
)

// Axis bit masks for subset-product terms.
const (
	axP = 1 << iota
	axQ
	axR
)

// ProdSum represents sum over subsets S of {P,Q,R} of C[S] * prod(S).
type ProdSum struct {
	C [8]float64
}

// Eval evaluates the subset-product sum.
func (v ProdSum) Eval(p, q, r int) float64 {
	return evalSubsets(v.C, p, q, r, false)
}

// InvSum represents sum over subsets S of {P,Q,R} of C[S] / prod(S).
type InvSum struct {
	C [8]float64
}

// Eval evaluates the inverse-product sum.
func (v InvSum) Eval(p, q, r int) float64 {
	return evalSubsets(v.C, p, q, r, true)
}

func evalSubsets(c [8]float64, p, q, r int, inverse bool) float64 {
	dims := [3]float64{float64(p), float64(q), float64(r)}
	var total float64
	for mask := 0; mask < 8; mask++ {
		if c[mask] == 0 {
			continue
		}
		f := 1.0
		for b := 0; b < 3; b++ {
			if mask&(1<<b) != 0 {
				f *= dims[b]
			}
		}
		if inverse {
			total += c[mask] / f
		} else {
			total += c[mask] * f
		}
	}
	return total
}

// Estimates carries the symbolic cost coefficients of one partial fusion
// plan. NetBytes and ComFlops are cluster-wide totals; MemBytes is per task.
type Estimates struct {
	NetBytes ProdSum
	ComFlops ProdSum
	MemBytes InvSum

	// AggBytes is the size of the main multiplication's output (its
	// pattern's, when masked): at R > 1, (R-1) * AggBytes of NetBytes is the
	// aggregation shuffle of its partial results.
	AggBytes float64

	// Grid dimensions (in blocks) of the main multiplication; the optimizer
	// search space is (1..I) x (1..J) x (1..K).
	I, J, K int
}

// OpEstimates are one operator's estimates at its chosen parameters:
// cluster-wide network bytes, of which AggBytes is the aggregation shuffle
// (an R>1 multiplication's partial results, a root aggregation's partial
// aggregates) and the rest consolidation; cluster-wide flops; and per-task
// memory. Each estimate function below is the one place its operator's
// traffic is counted.
type OpEstimates struct {
	NetBytes, AggBytes, ComFlops, MemPerTask int64
}

// At evaluates the estimates at the candidate (p,q,r).
func (e Estimates) At(p, q, r int) OpEstimates {
	return OpEstimates{
		NetBytes:   int64(e.NetBytes.Eval(p, q, r)),
		AggBytes:   int64(float64(r-1) * e.AggBytes),
		ComFlops:   int64(e.ComFlops.Eval(p, q, r)),
		MemPerTask: int64(e.MemBytes.Eval(p, q, r)),
	}
}

// Cost evaluates the objective of Eq. 2 for a candidate (p,q,r) on cluster
// cc: max(NetEst/(N*B̂n), ComEst/(N*B̂c)), priced by cc.Eq2.
func Cost(cc cluster.Config, e Estimates, p, q, r int) float64 {
	return max(cc.Eq2(e.NetBytes.Eval(p, q, r), e.ComFlops.Eval(p, q, r)))
}

// MemOK reports whether the candidate fits cc's per-task budget θt.
func MemOK(cc cluster.Config, e Estimates, p, q, r int) bool {
	return e.MemBytes.Eval(p, q, r) <= float64(cc.TaskMemBytes)
}

// axes maps a model space's local i/j/k axes to global axis bits (0 when the
// local axis has no global counterpart, i.e. a nested inner dimension).
type axes struct{ ai, aj, ak int }

// Analyze extracts the symbolic cost coefficients of plan p. The plan must
// contain a matrix multiplication; use ElementwiseEstimates otherwise.
//
// Only materialised vertices (external inputs and the plan output)
// contribute to memory and network; every operator contributes to
// computation, multiplied by its replication degree. When the plan matches
// the outer-fusion template the main multiplication's flops are reduced to
// the masked count (sparsity exploitation), and R>1 aggregation shuffles the
// (pattern-sized) partials.
func Analyze(p *fusion.Plan, blockSize int) Estimates {
	tree := p.Spaces()
	if tree == nil {
		panic("cost: Analyze requires a plan with matrix multiplication")
	}
	var e Estimates
	e.I, e.J, e.K = p.BlockGridDims(blockSize)

	a := &analysis{e: &e, p: p}
	if om := fusion.FindOuterMask(p); om != nil {
		a.maskedMM = p.MainMM
		inner := p.MainMM.Inputs[0].Cols
		a.maskedFlops = float64(2 * om.Driver.EstNNZ() * int64(inner))
		e.AggBytes = float64(om.Driver.EstNNZ() * 16)
	} else {
		e.AggBytes = float64(p.MainMM.EstSizeBytes())
	}
	top := axes{axP, axQ, axR}
	a.topTree = tree
	a.tree(tree, top, axP|axQ|axR)

	// R>1 aggregation shuffle: (R-1) * |MM output| bytes.
	e.NetBytes.C[axR] += e.AggBytes
	e.NetBytes.C[0] -= e.AggBytes

	// The plan output is materialised in the output plane: share 1/(P*Q).
	e.MemBytes.C[axP|axQ] += float64(p.Root.EstSizeBytes())
	return e
}

type analysis struct {
	e           *Estimates
	p           *fusion.Plan
	topTree     *fusion.SpaceTree
	maskedMM    *dag.Node
	maskedFlops float64
}

// colocatedO reports whether an external input of the top-level O-space is
// co-partitioned with the output plane and therefore moves no bytes: the
// paper's measured CFO communication (Figures 12(e)-(g)) shows the main
// matrix X is consumed in place, below Table 1's theoretical R|X| term. The
// input must be shaped exactly like the main multiplication's output.
func (a *analysis) colocatedO(tree *fusion.SpaceTree, side *fusion.Side, in *dag.Node) bool {
	if tree != a.topTree || side != &tree.O {
		return false
	}
	return in.Rows == tree.MM.Rows && in.Cols == tree.MM.Cols
}

// tree charges one model space: its multiplication, its three sides and
// their nested trees. ax maps the tree's local axes to global axis bits;
// stage is the set of global axes indexing the tasks that evaluate this
// tree.
func (a *analysis) tree(t *fusion.SpaceTree, ax axes, stage int) {
	mmActive := (ax.ai | ax.aj | ax.ak) & stage
	flops := float64(t.MM.EstFlops())
	if t.MM == a.maskedMM {
		flops = a.maskedFlops
	}
	a.e.ComFlops.C[stage&^mmActive] += flops
	// Direct external inputs of the multiplication belong to its L/R sides.
	for idx, in := range t.MM.Inputs {
		if !a.p.Contains(in) {
			side := fusion.SpaceL
			if idx == 1 {
				side = fusion.SpaceR
			}
			a.materialized(in, sideActive(side, ax)&stage, stage)
		}
	}
	a.side(t, &t.L, fusion.SpaceL, ax, stage)
	a.side(t, &t.R, fusion.SpaceR, ax, stage)
	// O-space runs after the tree's inner axis is aggregated: its stage
	// drops the tree's k axis.
	a.side(t, &t.O, fusion.SpaceO, ax, stage&^ax.ak)
}

// sideActive returns the global axes a side's plane is partitioned on.
func sideActive(s fusion.Space, ax axes) int {
	switch s {
	case fusion.SpaceL:
		return ax.ai | ax.ak
	case fusion.SpaceR:
		return ax.ak | ax.aj
	default: // SpaceO
		return ax.ai | ax.aj
	}
}

func (a *analysis) side(tree *fusion.SpaceTree, side *fusion.Side, s fusion.Space, ax axes, stage int) {
	active := sideActive(s, ax) & stage
	for _, n := range side.Nodes {
		a.e.ComFlops.C[stage&^active] += float64(n.EstFlops())
		for _, in := range n.Inputs {
			if !a.p.Contains(in) {
				if a.colocatedO(tree, side, in) {
					// Memory is still held; nothing crosses the network.
					a.e.MemBytes.C[active] += float64(in.EstSizeBytes())
					continue
				}
				a.materialized(in, active, stage)
			}
		}
	}
	// Nested multiplications form their own model space in this side's
	// plane; their inner dimension has no global axis.
	var sub axes
	switch s {
	case fusion.SpaceL:
		sub = axes{ax.ai, ax.ak, 0}
	case fusion.SpaceR:
		sub = axes{ax.ak, ax.aj, 0}
	default:
		sub = axes{ax.ai, ax.aj, 0}
	}
	for _, nested := range side.Nested {
		a.tree(nested, sub, stage)
	}
}

// materialized charges a consolidated input: replicated to prod(stage \
// active) tasks on the network, holding a 1/prod(active) share per task.
func (a *analysis) materialized(in *dag.Node, active, stage int) {
	size := float64(in.EstSizeBytes())
	a.e.NetBytes.C[stage&^active] += size
	a.e.MemBytes.C[active] += size
}

// PartitionBytes approximates Spark's default partition size: distributed
// collections stream through tasks in chunks of roughly this size, which
// bounds a map task's working set regardless of total data volume.
const PartitionBytes = 128 << 20

// ElementwiseEstimates estimates a plan without matrix multiplication,
// executed as a partitioned map over the output grid. Inputs shaped like
// the output plane are co-partitioned with it and pipeline for free (a
// Spark map stage shuffles nothing); differently-shaped inputs (transposes,
// broadcast vectors, reorganisations) transfer. A root aggregation shuffles
// its small partial results. Per-task memory is one partition's share, not
// the full per-task slice: map tasks stream partitions.
func ElementwiseEstimates(p *fusion.Plan, tasks int) OpEstimates {
	planeR, planeC := p.Root.Rows, p.Root.Cols
	if p.Root.Op == dag.OpUnaryAgg {
		planeR, planeC = p.Root.Inputs[0].Rows, p.Root.Inputs[0].Cols
	}
	tasks = max(tasks, 1)
	e := OpEstimates{AggBytes: RootPartialBytes(p, tasks)}
	var inBytes int64
	for _, in := range p.ExternalInputs() {
		sz := in.EstSizeBytes()
		inBytes += sz
		if in.Rows != planeR || in.Cols != planeC {
			e.NetBytes += sz
		}
	}
	for _, id := range p.MemberIDs() {
		e.ComFlops += p.Members[id].EstFlops()
	}
	e.NetBytes += e.AggBytes
	total := inBytes + p.Root.EstSizeBytes()
	parts := int64(tasks)
	if byParts := (total + PartitionBytes - 1) / PartitionBytes; byParts > parts {
		parts = byParts
	}
	e.MemPerTask = total/parts + 1
	return e
}

// RootPartialBytes is the aggregation shuffle of a plan whose root
// aggregates, run as tasks tasks: one partial aggregate per task. It is zero
// for any other root.
func RootPartialBytes(p *fusion.Plan, tasks int) int64 {
	if p.Root.Op != dag.OpUnaryAgg {
		return 0
	}
	return p.Root.EstSizeBytes() * int64(tasks)
}

// BFOEstimates returns the Table 1 row for the broadcast-based fused
// operator: the largest input (by cell count) is repartitioned across T
// tasks, every other input is broadcast to all T tasks, and a root
// aggregation shuffles one partial aggregate per task.
//
//	net = |main| + T * sum(|side|) (+ T * |out| under a root aggregation)
//	mem = |main|/T + sum(|side|) + |out|/T
//	com = sum over operators of numOp (side-op redundancy charged T-fold)
func BFOEstimates(p *fusion.Plan, tasks int) OpEstimates {
	main := mainInput(p)
	t := int64(tasks)
	var sideBytes int64
	var mainBytes int64
	for _, in := range p.ExternalInputs() {
		if in == main {
			mainBytes = in.EstSizeBytes()
			continue
		}
		sideBytes += in.EstSizeBytes()
	}
	e := OpEstimates{AggBytes: RootPartialBytes(p, tasks)}
	e.NetBytes = mainBytes + t*sideBytes + e.AggBytes
	e.MemPerTask = mainBytes/t + sideBytes + p.Root.EstSizeBytes()/t
	spaces := p.NodeSpaces()
	for _, id := range p.MemberIDs() {
		n := p.Members[id]
		f := n.EstFlops()
		// Pre-processing in L/R space (e.g. the transpose of V) is executed
		// redundantly by every task.
		if spaces != nil && (spaces[id] == fusion.SpaceL || spaces[id] == fusion.SpaceR) && n.Op != dag.OpMatMul {
			f *= t
		}
		e.ComFlops += f
	}
	return e
}

// RFOEstimates returns the Table 1 row for the replication-based fused
// operator, which is exactly the cuboid model at (P,Q,R) = (I,J,1).
func RFOEstimates(p *fusion.Plan, blockSize int) OpEstimates {
	e := Analyze(p, blockSize)
	return e.At(e.I, e.J, 1)
}

// SparkSizeBytes estimates a matrix's footprint in SystemDS's Spark block
// format: MCSR sparse blocks cost ~12 bytes per non-zero (int column index +
// double), dense blocks 8 bytes per cell. Used by the BFO/RFO selection
// rule, which counts Spark partitions.
func SparkSizeBytes(n *dag.Node) int64 {
	if n.Sparsity < dag.SparseStorageThreshold {
		return n.EstNNZ() * 12
	}
	return n.Cells() * 8
}

// mainInput returns the external input with the most cells (the paper's
// "main matrix": the one that gets repartitioned rather than broadcast).
func mainInput(p *fusion.Plan) *dag.Node {
	var best *dag.Node
	for _, in := range p.ExternalInputs() {
		if in.Op == dag.OpScalar {
			continue
		}
		if best == nil || in.Cells() > best.Cells() {
			best = in
		}
	}
	return best
}

// MainInput exposes the main-matrix selection rule for engines.
func MainInput(p *fusion.Plan) *dag.Node { return mainInput(p) }
