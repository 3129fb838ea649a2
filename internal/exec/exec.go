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
// operand's row: a row is evaluated in scratch up to its last operator,
// whose loop stores each value after reading that value's operands. A
// fetched, memoised, pinned or cache-resident block is never
// written, which is what lets the runtimes share blocks between tasks, caches
// and bindings without copying (matrix.ToDense and ToCSR may return their
// argument; an output may be one of its inputs' blocks, or share its
// pattern). The sinks own what tasks emitted and fold partials into it in
// place. On a worker, the blocks a task fetched live in its task stream's
// arena only until the task's done frame is written: a result that is, or
// shares memory with, a fetched block has gone out before then, and a block
// a task caches was fetched into storage of its own. A task puts on the heap
// only the blocks it emits as they are; every other dense block it builds —
// retained members, products a chain only reads, aggregated roots, scratch —
// lies in a task arena (arena.go), held until the task ends or until the
// output block it serves was emitted or folded, and one of them that reaches
// emit leaves as a clone. Results that come off the wire are checked against the sinks —
// kind, key, shape — before any is routed (ErrMalformedResult).
//
// Three consolidation strategies share this machinery:
//
//   - CFO: optimised (P,Q,R) cuboid partitioning (Section 3.2);
//   - RFO: the degenerate (P,Q,R) = (I,J,1) partitioning;
//   - BFO: round-robin output partitioning with every side matrix broadcast
//     to every task (Strategy Broadcast).
//
// Stages: an operator is lowered to its stages once, when its plan is
// compiled (lower.go; FusedOp.Lower, MultiAggOp.Lower), into an Operator
// that the plan — and a plan cache — keeps. With R = 1 a single stage
// computes final output blocks. With R > 1, stage one computes partial
// main-multiplication results per cuboid, a metered shuffle aggregates them
// to their (p,q) owners, and stage two applies the O-space chain once. (The
// paper's cost model instead charges the O-chain R-fold; see DESIGN.md for
// why the executor aggregates first.) A root aggregation adds a metered
// partial-aggregate combine. Operator.Run is the one executor: it fills in
// what depends on the bound data — input epochs under block caching, the
// ranges of a balanced operator — on a copy (Operator.bound), and hands every
// stage to the runtime through dispatch.
package exec

import (
	"sync"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/fusion"
	"fuseme/internal/matrix"
	"fuseme/internal/obs"
	"fuseme/internal/rt"
	"fuseme/internal/rt/spec"
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

// FusedOp is one physical fused operator: what Lower turns into stages.
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

	// Pred is the planner's half of this operator's stage records: the
	// operator key (Op, joining its stages in calibration reports), kind,
	// chosen (P,Q,R) and predicted costs. Every stage's record starts as a
	// copy and gains the measured half.
	Pred obs.FlightRecord
}

// Execute lowers op for the runtime's cluster and runs it, returning the
// materialised result of the plan root: the short path for a fused operator
// that is not part of a compiled plan.
func (op *FusedOp) Execute(rtm rt.Runtime, bind Bindings) (*block.Matrix, error) {
	lo, err := op.Lower(rtm.Config())
	if err != nil {
		return nil, err
	}
	outs, err := lo.Run(rtm, bind, nil, nil)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// partRange splits dim block indices into parts balanced ranges and returns
// the idx-th.
func partRange(dim, parts, idx int) spec.Span {
	base := dim / parts
	rem := dim % parts
	lo := idx*base + min(idx, rem)
	size := base
	if idx < rem {
		size++
	}
	return spec.Span{Lo: lo, Hi: lo + size}
}

// equalRanges materialises all partRange spans of a dimension.
func equalRanges(dim, parts int) []spec.Span {
	out := make([]spec.Span, parts)
	for i := range out {
		out[i] = partRange(dim, parts, i)
	}
	return out
}

// weightedRanges splits indices 0..len(w) into parts contiguous ranges of
// approximately equal total weight, guaranteeing every range is non-empty.
// Used by sparsity-aware load balancing.
func weightedRanges(w []int64, parts int) []spec.Span {
	n := len(w)
	if parts > n {
		parts = n
	}
	var total int64
	for _, v := range w {
		total += v
	}
	out := make([]spec.Span, 0, parts)
	lo := 0
	var remaining = total
	for part := 0; part < parts; part++ {
		partsLeft := parts - part
		if partsLeft == 1 {
			out = append(out, spec.Span{Lo: lo, Hi: n})
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
		out = append(out, spec.Span{Lo: lo, Hi: hi})
		remaining -= acc
		lo = hi
	}
	return out
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

// resultSink collects final output blocks from tasks.
type resultSink struct {
	mu  sync.Mutex
	out *block.Matrix
}

// put stores a final block, counted here and only here, as Collect takes it:
// on the simulated cluster on the lane whose task made it, on the TCP
// coordinator as it comes off the wire — outside the lock, so concurrent tasks count in
// parallel and fold their counts into the result's total under it. A result
// rebound as an input then gives the session its density without a scan.
func (s *resultSink) put(bi, bj int, blk matrix.Mat) {
	if blk == nil {
		return
	}
	nnz := blk.NNZ()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.out.SetCounted(bi, bj, blk, nnz)
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
// of stage-one tasks (the matrix aggregation step) over the main
// multiplication's block grid.
type mmPartialSink struct {
	mu  sync.Mutex
	out *block.Matrix
}

func (s *mmPartialSink) add(bi, bj int, blk matrix.Mat) {
	if blk == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur := s.out.Block(bi, bj); cur != nil {
		// The sink owns what tasks emitted: the sum folds into cur in place.
		blk = matrix.AddAcc(cur, blk)
	}
	s.out.SetBlock(bi, bj, blk)
}

// get returns the aggregated partial for output block (bi, bj); nil means
// the block is all-zero.
func (s *mmPartialSink) get(bi, bj int) matrix.Mat {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.out.Block(bi, bj)
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
