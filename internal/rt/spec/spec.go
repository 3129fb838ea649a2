// Package spec defines the serializable task descriptors of the distributed
// runtime: a flat encoding of a partial fusion plan, the cuboid partition
// ranges of one execution stage, and the framed block payloads that move
// between a coordinator and its workers. A Stage plus a task index fully
// determines one task's work, so a remote worker can execute any executor
// stage from the descriptor alone, pulling input blocks on demand.
//
// Descriptors carry no matrix data. Blocks travel separately in the FME1
// binary format (matrix.AppendViews/ReadBlock), so the wire cost of a block
// is within a few header bytes of its in-memory size — which is what lets
// the coordinator's measured wire bytes be compared against the simulated
// cluster's metered communication for the same plan.
package spec

import (
	"fmt"

	"fuseme/internal/dag"
	"fuseme/internal/fusion"
	"fuseme/internal/matrix"
)

// Stage phases. Each names one distributed stage shape of the executor.
const (
	PhaseCuboid  = "cuboid"  // (P,Q,1): one stage computes final output blocks
	PhasePartial = "partial" // (P,Q,R>1) stage one: partial mm results per cuboid
	PhaseFuse    = "fuse"    // (P,Q,R>1) stage two: O-chain over aggregated partials
	PhaseGrid    = "grid"    // matmul-free plans and BFO: strided map over the grid
)

// Span is a half-open block-index range [Lo, Hi).
type Span struct{ Lo, Hi int }

// Len returns Hi-Lo.
func (s Span) Len() int { return s.Hi - s.Lo }

// NodeSpec is the flat encoding of one dag.Node. Non-member nodes (external
// inputs of the plan) are shipped as opaque leaves: their Inputs are
// stripped, because a worker only ever fetches their blocks, never computes
// them.
type NodeSpec struct {
	ID       int
	Op       int
	Name     string
	Func     string
	BinOp    int
	Agg      int
	Scalar   float64
	Rows     int
	Cols     int
	Sparsity float64
	Inputs   []int
	Member   bool
}

// PlanSpec is the flat encoding of a fusion.Plan: its member operators, the
// external nodes they reference, and the designated root / main matmul.
type PlanSpec struct {
	Nodes  []NodeSpec
	Root   int
	MainMM int // -1 when the plan has no matrix multiplication
}

// FromPlan flattens p. The inverse is Build.
func FromPlan(p *fusion.Plan) PlanSpec {
	ps := PlanSpec{Root: p.Root.ID, MainMM: -1}
	if p.MainMM != nil {
		ps.MainMM = p.MainMM.ID
	}
	emit := func(n *dag.Node, member bool) {
		ns := NodeSpec{
			ID: n.ID, Op: int(n.Op), Name: n.Name, Func: n.Func,
			BinOp: int(n.BinOp), Agg: int(n.Agg), Scalar: n.Scalar,
			Rows: n.Rows, Cols: n.Cols, Sparsity: n.Sparsity, Member: member,
		}
		if member {
			ns.Inputs = make([]int, len(n.Inputs))
			for i, in := range n.Inputs {
				ns.Inputs[i] = in.ID
			}
		}
		ps.Nodes = append(ps.Nodes, ns)
	}
	for _, id := range p.MemberIDs() {
		emit(p.Members[id], true)
	}
	for _, n := range p.ExternalInputs() {
		emit(n, false)
	}
	return ps
}

// Build reconstructs the fusion plan: nodes are materialised with their
// original IDs, member edges rewired, and consumer links restored so the
// worker-side plan answers FindOuterMask and space queries exactly like the
// coordinator's original.
func (ps PlanSpec) Build() (*fusion.Plan, error) {
	nodes := make(map[int]*dag.Node, len(ps.Nodes))
	for _, ns := range ps.Nodes {
		if _, dup := nodes[ns.ID]; dup {
			return nil, fmt.Errorf("spec: duplicate node %d", ns.ID)
		}
		nodes[ns.ID] = &dag.Node{
			ID: ns.ID, Op: dag.Op(ns.Op), Name: ns.Name, Func: ns.Func,
			BinOp: matrix.BinOp(ns.BinOp), Agg: matrix.AggFunc(ns.Agg),
			Scalar: ns.Scalar, Rows: ns.Rows, Cols: ns.Cols, Sparsity: ns.Sparsity,
		}
	}
	members := make(map[int]*dag.Node)
	for _, ns := range ps.Nodes {
		n := nodes[ns.ID]
		for _, id := range ns.Inputs {
			in, ok := nodes[id]
			if !ok {
				return nil, fmt.Errorf("spec: node %d references missing node %d", ns.ID, id)
			}
			n.Inputs = append(n.Inputs, in)
		}
		n.LinkConsumers()
		if ns.Member {
			members[n.ID] = n
		}
	}
	root, ok := nodes[ps.Root]
	if !ok {
		return nil, fmt.Errorf("spec: missing root node %d", ps.Root)
	}
	p := &fusion.Plan{Root: root, Members: members}
	if ps.MainMM >= 0 {
		mm, ok := nodes[ps.MainMM]
		if !ok {
			return nil, fmt.Errorf("spec: missing main matmul node %d", ps.MainMM)
		}
		p.MainMM = mm
	}
	return p, nil
}

// Stage describes one distributed execution stage: which plan runs, how the
// output plane (and the main multiplication's inner dimension) is
// partitioned, and everything else a worker needs to execute task IDs
// 0..NumTasks-1 without the coordinator's in-memory state.
type Stage struct {
	Name      string
	Phase     string
	NumTasks  int
	BlockSize int
	Plan      PlanSpec

	// Group, when set, makes the stage a multi-aggregation — a PhaseGrid stage
	// with several outputs: Plan and every plan of Group root at an
	// aggregation over the same plane, and each task evaluates all of them
	// per block of that plane, reading shared inputs once. Output 0 is
	// Plan's, output i Group[i-1]'s.
	Group []PlanSpec

	Broadcast bool // BFO: ship side matrices whole to every task
	NoMask    bool // ablation: disable sparsity exploitation
	Swapped   bool // root block plane is the transpose of the mm output plane

	// Cuboid partition ranges, resolved on the coordinator (they may be
	// data-dependent under sparsity-aware load balancing).
	IRanges []Span
	JRanges []Span
	KRanges []Span

	GI, GJ, GK int // block-grid dimensions of the output plane / inner dim

	// Colocated lists external input node IDs that are co-partitioned with
	// the output plane: tasks charge them to memory but not to consolidation
	// traffic (in a real deployment they are local reads, not shuffles).
	Colocated []int
}

// Block reference kinds for worker → coordinator fetches.
const (
	RefInput   = uint8(0) // a bound external input's block
	RefPartial = uint8(1) // an aggregated main-multiplication partial (PhaseFuse)
)

// BlockRef names one block a task needs.
type BlockRef struct {
	Kind   uint8
	Node   int // node ID for RefInput; unused for RefPartial
	BI, BJ int
}

// Output block kinds for task → coordinator results: the low two bits of a
// result's kind byte. The bits above them carry the index of the output the
// block belongs to, which is 0 — so the byte is the plain kind — for every
// block but the OutAgg partials of a multi-aggregation stage's further plans
// (OutAgg | i<<2 for output i).
const (
	OutFinal   = uint8(0) // a final output block of the fused operator
	OutAgg     = uint8(1) // a task-local partial of the root aggregation
	OutPartial = uint8(2) // a partial main-multiplication block (PhasePartial)
)

// OutBlock is one result block produced by a task, as it came off the wire:
// the block (nil for an all-zero one), decoded into storage of its own, and
// the size of its FME1 encoding.
type OutBlock struct {
	Kind      uint8
	BI, BJ    int
	Block     matrix.Mat
	WireBytes int
}

// EncodeBlock serialises a block in the FME1 format, in one exactly-sized
// allocation. Encoding nil (an all-zero block) returns nil bytes.
func EncodeBlock(m matrix.Mat) ([]byte, error) {
	if m == nil {
		return nil, nil
	}
	return matrix.AppendTo(make([]byte, 0, matrix.EncodedSize(m)), m), nil
}

// DecodeBlock deserialises an EncodeBlock payload; nil bytes decode to a nil
// (all-zero) block. The block owns its memory (data may be reused at once);
// malformed bytes are matrix.ErrCorruptBlock, never a panic.
func DecodeBlock(data []byte) (matrix.Mat, error) {
	if len(data) == 0 {
		return nil, nil
	}
	return matrix.Decode(data)
}
