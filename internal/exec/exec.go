// Package exec implements the distributed fused-operator executor: the
// physical runtime behind CFO, BFO and RFO. One partial fusion plan runs as
// one fused operator; intermediates never leave a task and are never
// materialised globally (the paper's "no materialisation" property).
//
// The executor is pull-based. Each task owns a cuboid partition (block
// ranges on the i/j/k axes of the main multiplication's 3-D model). Output
// block requirements propagate top-down through the fused sub-DAG — a
// transpose swaps coordinates, the main multiplication restricts k to the
// task's r-range, nested multiplications require their full inner dimension —
// and leaf requirements define the consolidation traffic, which the
// simulated cluster meters. Evaluation is bottom-up with per-task
// memoisation of L/R-space results and multiplication operands (reused
// across output blocks) and of fetched input blocks. Within a task every
// output block is written once: a multiplication folds its k-block products
// into one accumulator in place, a transposed operand is read by a
// transpose-aware kernel rather than built where one exists (the transposed
// dense x CSR kernel; the masked SDDMM, which reads a member t(B) as B's own
// row-major block), and a run of element-wise operators is compiled into one
// expression and applied once (eval.go, eval_masked.go): strip by strip — one
// call per operator per row — for a dense result, cell by cell where a sparse
// step walks a pattern, and on the masked (outer-fusion) path as in-place
// passes over the driver's values buffer, one loop per operator.
//
// Ownership: a block is immutable once published — bound as an input,
// emitted to a sink, memoised, pinned, or resident in a block cache. The
// in-place kernels write only into buffers the task itself allocated and has
// not published yet: a multiplication's accumulator, the masked values
// buffer, per-task scratch. A chain that consumed such an accumulator stores
// its result there (matrix.Chain.Owned), so the row being written is an
// operand's row: a row is evaluated in scratch and stored once, after every
// read of it. A fetched, memoised, pinned or cache-resident block is never
// written, which is what lets the runtimes share blocks between tasks, caches
// and bindings without copying (matrix.ToDense and ToCSR may return their
// argument; an output may be one of its inputs' blocks, or share its
// pattern). The sinks own what tasks emitted and fold partials into it in
// place.
//
// Three consolidation strategies share this machinery:
//
//   - CFO: optimised (P,Q,R) cuboid partitioning (Section 3.2);
//   - RFO: the degenerate (P,Q,R) = (I,J,1) partitioning;
//   - BFO: round-robin output partitioning with every side matrix broadcast
//     to every task (Strategy Broadcast).
//
// Stages: with R = 1 a single stage computes final output blocks. With
// R > 1, stage one computes partial main-multiplication results per cuboid,
// a metered shuffle aggregates them to their (p,q) owners, and stage two
// applies the O-space chain once. (The paper's cost model instead charges
// the O-chain R-fold; see DESIGN.md for why the executor aggregates first.)
// A root aggregation adds a metered partial-aggregate combine.
package exec

import (
	"errors"
	"fmt"
	"sync"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/dag"
	"fuseme/internal/fusion"
	"fuseme/internal/matrix"
	"fuseme/internal/obs"
	"fuseme/internal/rt"
)

// Bindings maps external node IDs to their materialised blocked matrices.
type Bindings map[int]*block.Matrix

// Strategy selects the consolidation scheme.
type Strategy int

// Consolidation strategies.
const (
	Cuboid    Strategy = iota // CFO / RFO: (P,Q,R) cuboid partitioning
	Broadcast                 // BFO: broadcast side matrices, round-robin main
)

// FusedOp is one physical fused operator ready to execute.
type FusedOp struct {
	Plan     *fusion.Plan
	P, Q, R  int // cuboid parameters; ignored under Broadcast
	Strategy Strategy

	// Balance enables sparsity-aware load balancing (the paper's future-work
	// extension): when the plan has a sparse driver, the i- and j-axis
	// partition boundaries follow the driver's non-zero distribution instead
	// of equal widths, so skewed matrices spread evenly across tasks.
	Balance bool

	// NoMask disables outer-fusion sparsity exploitation (for ablation): the
	// multiplication chain is evaluated densely even under a sparse driver.
	NoMask bool

	// Obs receives stage/task spans, metrics and one flight record per stage
	// from this operator's execution; nil disables all instrumentation.
	Obs *obs.Obs
	// Pred is the planner's half of this operator's stage records: the
	// operator key (Op, joining its stages in calibration reports), kind,
	// chosen (P,Q,R) and predicted costs. Every stage's record starts as a
	// copy and gains the measured half. Op defaults to "root-label#root-id".
	Pred obs.FlightRecord
}

// pred returns the prediction half of this operator's stage records.
func (op *FusedOp) pred() obs.FlightRecord {
	p := op.Pred
	if p.Op == "" {
		p.Op = fmt.Sprintf("%s#%d", op.Plan.Root.Label(), op.Plan.Root.ID)
	}
	return p
}

// Execute runs the fused operator on the runtime — the in-process simulated
// cluster or a remote coordinator — reading inputs from bind and returning
// the materialised result of the plan root.
func (op *FusedOp) Execute(rtm rt.Runtime, bind Bindings) (*block.Matrix, error) {
	if err := op.validate(rtm.Config(), bind); err != nil {
		return nil, err
	}
	if op.Plan.MainMM == nil || op.Strategy == Broadcast {
		return op.executeGrid(rtm, bind)
	}
	return op.executeCuboid(rtm, bind)
}

func (op *FusedOp) validate(cfg cluster.Config, bind Bindings) error {
	if op.Plan == nil {
		return errors.New("exec: nil plan")
	}
	if err := op.Plan.Validate(); err != nil {
		return err
	}
	bs := cfg.BlockSize
	for _, in := range op.Plan.ExternalInputs() {
		if in.Op == dag.OpScalar {
			continue
		}
		m, ok := bind[in.ID]
		if !ok {
			return fmt.Errorf("exec: no binding for input %q (node %d)", in.Name, in.ID)
		}
		if m.Rows != in.Rows || m.Cols != in.Cols {
			return fmt.Errorf("exec: binding for %q is %dx%d, node declares %dx%d",
				in.Name, m.Rows, m.Cols, in.Rows, in.Cols)
		}
		if m.BlockSize != bs {
			return fmt.Errorf("exec: binding for %q has block size %d, cluster uses %d",
				in.Name, m.BlockSize, bs)
		}
	}
	return nil
}

// span is a half-open block-index range.
type span struct{ lo, hi int }

func (s span) len() int { return s.hi - s.lo }

// partRange splits dim block indices into parts balanced ranges and returns
// the idx-th.
func partRange(dim, parts, idx int) span {
	base := dim / parts
	rem := dim % parts
	lo := idx*base + min(idx, rem)
	size := base
	if idx < rem {
		size++
	}
	return span{lo, lo + size}
}

// equalRanges materialises all partRange spans of a dimension.
func equalRanges(dim, parts int) []span {
	out := make([]span, parts)
	for i := range out {
		out[i] = partRange(dim, parts, i)
	}
	return out
}

// weightedRanges splits indices 0..len(w) into parts contiguous ranges of
// approximately equal total weight, guaranteeing every range is non-empty.
// Used by sparsity-aware load balancing.
func weightedRanges(w []int64, parts int) []span {
	n := len(w)
	if parts > n {
		parts = n
	}
	var total int64
	for _, v := range w {
		total += v
	}
	out := make([]span, 0, parts)
	lo := 0
	var remaining = total
	for part := 0; part < parts; part++ {
		partsLeft := parts - part
		if partsLeft == 1 {
			out = append(out, span{lo, n})
			break
		}
		target := remaining / int64(partsLeft)
		hi := lo
		var acc int64
		// Take at least one index, but leave one per remaining part.
		for hi < n-(partsLeft-1) {
			acc += w[hi]
			hi++
			if acc >= target {
				break
			}
		}
		out = append(out, span{lo, hi})
		remaining -= acc
		lo = hi
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// effectiveRoot returns the node evaluated per output block, and the root
// aggregation if the plan ends in one.
func (op *FusedOp) effectiveRoot() (*dag.Node, *dag.Node) {
	if op.Plan.Root.Op == dag.OpUnaryAgg {
		return op.Plan.Root.Inputs[0], op.Plan.Root
	}
	return op.Plan.Root, nil
}

// rootPlaneSwapped reports whether the effective root's block plane is the
// transpose of the main multiplication's output plane (an odd number of
// transposes on the O-space path from root to mm).
func (op *FusedOp) rootPlaneSwapped(root *dag.Node) bool {
	mm := op.Plan.MainMM
	if mm == nil {
		return false
	}
	swaps := 0
	var walk func(n *dag.Node, s int) bool
	walk = func(n *dag.Node, s int) bool {
		if n == mm {
			swaps = s
			return true
		}
		if !op.Plan.Contains(n) || n.Op == dag.OpMatMul {
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

// resultSink collects final output blocks from tasks.
type resultSink struct {
	mu  sync.Mutex
	out *block.Matrix
}

func (s *resultSink) put(bi, bj int, blk matrix.Mat) {
	if blk == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.out.SetBlock(bi, bj, blk)
}

// aggSink combines partial aggregation results from tasks using the
// aggregation's combine rule.
type aggSink struct {
	mu  sync.Mutex
	agg matrix.AggFunc
	out *block.Matrix
}

func (s *aggSink) combine(bi, bj int, blk matrix.Mat) {
	if blk == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.out.Block(bi, bj)
	if cur == nil {
		s.out.SetBlock(bi, bj, blk.Clone())
		return
	}
	s.out.SetBlock(bi, bj, s.agg.Combine(cur, blk))
}

// mmPartialSink accumulates partial main-multiplication blocks shuffled out
// of stage-one tasks (the matrix aggregation step).
type mmPartialSink struct {
	mu     sync.Mutex
	blocks map[block.Key]matrix.Mat
}

func (s *mmPartialSink) add(bi, bj int, blk matrix.Mat) {
	if blk == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	k := block.Key{Row: bi, Col: bj}
	if cur, ok := s.blocks[k]; ok {
		// The sink owns what tasks emitted: the sum folds into cur in place.
		s.blocks[k] = matrix.AddAcc(cur, blk)
	} else {
		s.blocks[k] = blk
	}
}

// get returns the aggregated partial for output block (bi, bj); nil means
// the block is all-zero.
func (s *mmPartialSink) get(bi, bj int) matrix.Mat {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.blocks[block.Key{Row: bi, Col: bj}]
}

// aggregateLocal folds a computed block into a task-local partial aggregate,
// keyed by the aggregation's output coordinates.
func aggregateLocal(task *cluster.Task, partial *block.Matrix, agg matrix.AggFunc, bi, bj int, blk matrix.Mat) {
	if blk == nil {
		return
	}
	if blk.IsSparse() {
		task.AddFlops(int64(blk.NNZ()))
	} else {
		r, c := blk.Dims()
		task.AddFlops(int64(r) * int64(c))
	}
	val := matrix.Aggregate(agg, blk)
	var ki, kj int
	switch agg {
	case matrix.RowSum:
		ki, kj = bi, 0
	case matrix.ColSum:
		ki, kj = 0, bj
	default:
		ki, kj = 0, 0
	}
	cur := partial.Block(ki, kj)
	if cur == nil {
		partial.SetBlock(ki, kj, val)
		return
	}
	partial.SetBlock(ki, kj, agg.Combine(cur, val))
}
