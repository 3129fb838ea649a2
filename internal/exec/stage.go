package exec

import (
	"fmt"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/dag"
	"fuseme/internal/matrix"
	"fuseme/internal/rt/spec"
)

// This file is the task half of the executor. runStageTask executes one task
// of a Stage — its spec.Stage descriptor plus the context lowering built for
// it — against a blockSource. The in-process backend calls it from the stage
// closure in paths.go; a remote worker calls it through Stage.RunTask,
// having rebuilt the same context from the shipped descriptor once per stage
// (NewSpecStage). Both paths run the same arithmetic and the same metering.

// blockSource resolves a task's external block references: bound input
// blocks and, in the fuse phase, aggregated main-multiplication partials.
// A nil matrix with nil error is an all-zero block.
//
// ahead returns the task's read-ahead hook, or nil when the source takes
// none. A task hands the hook, before a loop whose fetches it knows — a
// multiplication's k loop, a fuse task's partials — those references in the
// order the loop fetches them; the source may start moving them then. A hint
// is never a fetch: the task still fetches each reference it named, and may
// fetch others between them.
type blockSource interface {
	fetch(ref spec.BlockRef) (matrix.Mat, error)
	ahead() *readAhead
}

// readAhead is a task's read-ahead hook and the list the task builds for it,
// reused from loop to loop.
type readAhead struct {
	hint func(refs []spec.BlockRef)
	refs []spec.BlockRef
}

// bindSource serves blocks from coordinator-side state: the operator's
// bindings and (when R > 1) the partial-result sink filled by stage one.
type bindSource struct {
	bind     Bindings
	partials *mmPartialSink
}

func (s bindSource) fetch(ref spec.BlockRef) (matrix.Mat, error) {
	switch ref.Kind {
	case spec.RefPartial:
		if s.partials == nil {
			return nil, fmt.Errorf("exec: no partial sink for this stage")
		}
		return s.partials.get(ref.BI, ref.BJ), nil
	case spec.RefInput:
		m, ok := s.bind[ref.Node]
		if !ok {
			return nil, fmt.Errorf("exec: missing binding for node %d", ref.Node)
		}
		return m.Block(ref.BI, ref.BJ), nil
	}
	return nil, fmt.Errorf("exec: unknown block reference kind %d", ref.Kind)
}

// ahead is nil: a binding lookup has nothing to overlap, so an in-process
// task builds no hint list.
func (s bindSource) ahead() *readAhead { return nil }

// fetchSource adapts a remote fetch callback (a network pull on a worker)
// and its read-ahead hook (nil: none).
type fetchSource struct {
	fn    func(ref spec.BlockRef) (matrix.Mat, error)
	hints *readAhead
}

func (s fetchSource) fetch(ref spec.BlockRef) (matrix.Mat, error) { return s.fn(ref) }
func (s fetchSource) ahead() *readAhead                           { return s.hints }

// tracedSource wraps a blockSource so every resolved block reference records
// a "fetch" sub-span on the task's trace. Both backends share the wrapper, so
// sim and TCP runs produce identical fetch-span counts for the same plan; the
// spans time a binding lookup in-process and a real network pull on a worker.
type tracedSource struct {
	src blockSource
	tt  *cluster.TaskTrace
}

func (s tracedSource) fetch(ref spec.BlockRef) (matrix.Mat, error) {
	end := s.tt.Begin("fetch", "taskop")
	m, err := s.src.fetch(ref)
	end()
	return m, err
}

func (s tracedSource) ahead() *readAhead { return s.src.ahead() }

// tracedEmit wraps an emitFn so every emitted result block records a "send"
// sub-span (the block leaving the task: an encode+upload on a worker, a sink
// append in-process).
func tracedEmit(tt *cluster.TaskTrace, emit emitFn) emitFn {
	return func(kind uint8, bi, bj int, blk matrix.Mat) {
		end := tt.Begin("send", "taskop")
		emit(kind, bi, bj, blk)
		end()
	}
}

// emitFn receives a task's result blocks: final output blocks, task-local
// aggregation partials, or partial main-multiplication blocks.
type emitFn func(kind uint8, bi, bj int, blk matrix.Mat)

// aggKind is the kind byte of a task-local aggregate of the stage's output
// out (spec.OutAgg itself for output 0, the only one outside a
// multi-aggregation stage); aggOutput reads the index back and outKind the
// kind. The six bits above the kind bound a stage to maxOutputs outputs.
func aggKind(out int) uint8    { return spec.OutAgg | uint8(out)<<2 }
func aggOutput(kind uint8) int { return int(kind >> 2) }
func outKind(kind uint8) uint8 { return kind & 3 }

const maxOutputs = 1 << 6

// evaluator builds a task's evaluator of output plan pc over the main
// multiplication's k-block range [kLo, kHi), wired to the stage's
// co-partitioned inputs and input epochs.
func (st *Stage) evaluator(pc *planCtx, task *cluster.Task, src blockSource, kLo, kHi int) *evaluator {
	ev := newEvaluator(pc, task, src, st.Spec.BlockSize, kLo, kHi)
	ev.colocated, ev.epochs = st.Spec.Colocated, &st.Spec
	return ev
}

// taskOut is one output of a task: its evaluator and, when its plan roots in
// an aggregation, the task-local partial the blocks fold into, which leaves
// the task once, at the end.
type taskOut struct {
	ev      *evaluator
	partial *block.Matrix
	kind    uint8 // the partial's kind byte (aggKind)
}

// outputs builds the task's outputs, one per plan of the stage. Their
// evaluators read through one memo — a multi-aggregation's plans hold no
// multiplication, so only leaves are memoised — which makes a block several
// aggregations consume fetched, metered and cached once per task.
func (st *Stage) outputs(task *cluster.Task, src blockSource, kHi int) []taskOut {
	outs := make([]taskOut, len(st.outs))
	for i, pc := range st.outs {
		o := &outs[i]
		o.ev, o.kind = st.evaluator(pc, task, src, 0, kHi), aggKind(i)
		o.ev.memo, o.ev.fetched = outs[0].ev.memo, outs[0].ev.fetched
		if pc.agg != nil {
			o.partial = block.New(pc.agg.Rows, pc.agg.Cols, st.Spec.BlockSize)
		}
	}
	return outs
}

// eval computes output block (bi, bj) and folds it into the partial or emits
// it.
func (o *taskOut) eval(bi, bj int, emit emitFn) {
	endKernel := o.ev.trace.Begin("kernel", "taskop")
	blk := o.ev.evalBlock(o.ev.pc.root, bi, bj)
	endKernel()
	if agg := o.ev.pc.agg; agg != nil {
		aggregateLocal(o.ev.task, o.partial, agg.Agg, bi, bj, blk)
	} else if blk != nil {
		emit(spec.OutFinal, bi, bj, blk)
	}
}

// flush emits the task-local aggregate, if the output has one.
func (o *taskOut) flush(emit emitFn) {
	if o.partial == nil {
		return
	}
	o.partial.ForEach(func(k block.Key, blk matrix.Mat) {
		o.ev.task.SendBlock(blk)
		emit(o.kind, k.Row, k.Col, blk)
	})
}

// runStageTask executes the task: the single task body both backends share.
// Results leave through emit; metering lands on task. A task carrying a block
// cache first drops its entries of each input the stage names at an older
// epoch — rebound since, they can never hit again — so a cache is coherent
// with the stage it serves without anyone tracking what it holds.
func runStageTask(st *Stage, task *cluster.Task, src blockSource, emit emitFn) error {
	if cache, _ := task.Cache(); cache != nil {
		for _, ne := range st.Spec.Epochs {
			cache.InvalidateStale(ne.Node, ne.Epoch)
		}
	}
	if tt := task.Trace(); tt != nil {
		src = tracedSource{src: src, tt: tt}
		emit = tracedEmit(tt, emit)
	}
	return runTask(func() error {
		switch st.Spec.Phase {
		case spec.PhaseCuboid:
			return st.runCuboidTask(task, src, emit)
		case spec.PhasePartial:
			return st.runPartialTask(task, src, emit)
		case spec.PhaseFuse:
			return st.runFuseTask(task, src, emit)
		case spec.PhaseGrid:
			return st.runGridTask(task, src, emit)
		}
		return fmt.Errorf("exec: unknown stage phase %q", st.Spec.Phase)
	})
}

// runCuboidTask handles the single-stage (R == 1) cuboid execution: the task
// computes final output blocks of its (p, q) partition.
func (st *Stage) runCuboidTask(task *cluster.Task, src blockSource, emit emitFn) error {
	q := len(st.Spec.JRanges)
	return st.evalOutputs(&st.outputs(task, src, st.Spec.GK)[0], task.ID/q, task.ID%q, emit)
}

// runPartialTask handles stage one of an R > 1 execution: partial
// main-multiplication results over the task's k-range, shuffled out.
func (st *Stage) runPartialTask(task *cluster.Task, src blockSource, emit emitFn) error {
	sp := &st.Spec
	q, r := len(sp.JRanges), len(sp.KRanges)
	pi := task.ID / (q * r)
	qi := (task.ID / r) % q
	ri := task.ID % r
	kr := sp.KRanges[ri]
	pc := st.outs[0]
	ev := st.evaluator(pc, task, src, kr.Lo, kr.Hi)
	tt := task.Trace()
	rowsp, colsp := sp.IRanges[pi], sp.JRanges[qi]
	for bi := rowsp.Lo; bi < rowsp.Hi; bi++ {
		for bj := colsp.Lo; bj < colsp.Hi; bj++ {
			var part matrix.Mat
			endKernel := tt.Begin("kernel", "taskop")
			if pc.mask != nil {
				pattern, vals := ev.maskedMM(bi, bj)
				if pattern == nil {
					endKernel()
					continue // sparsity exploitation: nothing to do
				}
				part = pattern.WithValues(vals)
			} else {
				part = ev.evalBlock(pc.plan.MainMM, bi, bj)
			}
			endKernel()
			if part == nil {
				continue
			}
			task.SendBlock(part)
			emit(spec.OutPartial, bi, bj, part)
		}
	}
	return nil
}

// runFuseTask handles stage two of an R > 1 execution: the task pins the
// aggregated multiplication results of its partition and applies the O-space
// chain once.
func (st *Stage) runFuseTask(task *cluster.Task, src blockSource, emit emitFn) error {
	sp := &st.Spec
	q := len(sp.JRanges)
	pi, qi := task.ID/q, task.ID%q
	out := &st.outputs(task, src, sp.GK)[0]
	ri, rj := sp.IRanges[pi], sp.JRanges[qi]
	if ra := src.ahead(); ra != nil {
		refs := ra.refs[:0]
		for bi := ri.Lo; bi < ri.Hi; bi++ {
			for bj := rj.Lo; bj < rj.Hi; bj++ {
				refs = append(refs, spec.BlockRef{Kind: spec.RefPartial, BI: bi, BJ: bj})
			}
		}
		ra.refs = refs
		ra.hint(refs)
	}
	for bi := ri.Lo; bi < ri.Hi; bi++ {
		for bj := rj.Lo; bj < rj.Hi; bj++ {
			blk, err := src.fetch(spec.BlockRef{Kind: spec.RefPartial, BI: bi, BJ: bj})
			if err != nil {
				return fmt.Errorf("exec: partial block (%d,%d): %w", bi, bj, err)
			}
			out.ev.memo[memoKey{out.ev.pc.plan.MainMM.ID, bi, bj}] = blk // maskedMM / evalBlock find it pinned
			if blk != nil {
				task.GrowMem(blk.SizeBytes())
			}
		}
	}
	return st.evalOutputs(out, pi, qi, emit)
}

// runGridTask handles matmul-free plans, BFO executions and
// multi-aggregations: a strided map over the output block grid, every output
// evaluated per block.
func (st *Stage) runGridTask(task *cluster.Task, src blockSource, emit emitFn) error {
	sp := &st.Spec
	outs := st.outputs(task, src, sp.GK)
	if sp.Broadcast {
		broadcastSides(st.sides, src, outs[0].ev, task)
	}
	for l := task.ID; l < sp.GI*sp.GJ; l += sp.NumTasks {
		for i := range outs {
			outs[i].eval(l/sp.GJ, l%sp.GJ, emit)
		}
	}
	for i := range outs {
		outs[i].flush(emit)
	}
	return nil
}

// evalOutputs evaluates every block of out in partition (pi, qi) and emits
// final blocks, or task-local aggregates when the plan roots in an
// aggregation.
func (st *Stage) evalOutputs(out *taskOut, pi, qi int, emit emitFn) error {
	sp := &st.Spec
	ri, rj := sp.IRanges[pi], sp.JRanges[qi]
	for bi := ri.Lo; bi < ri.Hi; bi++ {
		for bj := rj.Lo; bj < rj.Hi; bj++ {
			oi, oj := bi, bj
			if sp.Swapped {
				oi, oj = bj, bi
			}
			out.eval(oi, oj, emit)
		}
	}
	out.flush(emit)
	return nil
}

// broadcastSides meters a full copy of every side matrix to the task, as the
// BFO's matrix consolidation step does, and seeds the evaluator's fetch memo
// so evaluation neither double-counts nor re-pulls them.
func broadcastSides(sides []*dag.Node, src blockSource, ev *evaluator, task *cluster.Task) {
	bs := ev.blockSize
	for _, in := range sides {
		gi := (in.Rows + bs - 1) / bs
		gj := (in.Cols + bs - 1) / bs
		for bi := 0; bi < gi; bi++ {
			for bj := 0; bj < gj; bj++ {
				blk, err := src.fetch(spec.BlockRef{Kind: spec.RefInput, Node: in.ID, BI: bi, BJ: bj})
				if err != nil {
					ev.fail(fmt.Errorf("exec: broadcast input %d block (%d,%d): %w", in.ID, bi, bj, err))
				}
				task.FetchBlock(blk)
				key := memoKey{in.ID, bi, bj}
				ev.fetched[key] = true
				ev.memo[key] = blk
			}
		}
	}
}

// NewSpecStage makes a shipped stage descriptor ready to execute on a
// worker: it rebuilds the plan — of a multi-aggregation, the plans — sp
// describes, and the stage's context over them with the constructor lowering
// uses, once; every task of the stage the worker is assigned runs against
// the result.
func NewSpecStage(sp *spec.Stage) (*Stage, error) {
	outs := make([]*planCtx, 1+len(sp.Group))
	for i, ps := range append([]spec.PlanSpec{sp.Plan}, sp.Group...) {
		p, err := ps.Build()
		if err != nil {
			return nil, err
		}
		outs[i] = newPlanCtx(p, sp.NoMask)
	}
	return newStage(*sp, outs), nil
}

// RunTask runs task.ID of the stage on a worker: blocks are pulled through
// fetch and result blocks handed to emit as they are produced (an emit error
// fails the task). ahead, when not nil, is told before a loop which blocks
// the loop will fetch, in fetch order (blockSource.ahead); a task bound to a
// block cache never calls it, since a hit must not be fetched. Metering lands
// on task and is reported back to the coordinator by the caller; the worker
// hands the task its block cache (cluster.Task.SetCache).
func (st *Stage) RunTask(task *cluster.Task, fetch func(spec.BlockRef) (matrix.Mat, error), ahead func([]spec.BlockRef), emit func(kind uint8, bi, bj int, blk matrix.Mat) error) error {
	if sp := &st.Spec; task.ID < 0 || task.ID >= sp.NumTasks {
		return fmt.Errorf("exec: task %d outside stage %q (%d tasks)", task.ID, sp.Name, sp.NumTasks)
	}
	src := fetchSource{fn: fetch}
	if cache, _ := task.Cache(); ahead != nil && cache == nil {
		src.hints = &readAhead{hint: ahead}
	}
	return runStageTask(st, task, src, func(kind uint8, bi, bj int, blk matrix.Mat) {
		if err := emit(kind, bi, bj, blk); err != nil {
			panic(execPanic{fmt.Errorf("exec: sending result block (%d,%d): %w", bi, bj, err)})
		}
	})
}
