package exec

import (
	"fmt"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/dag"
	"fuseme/internal/matrix"
	"fuseme/internal/rt/spec"
)

// This file is the task half of the executor: Stage.RunTask executes one
// task of a Stage — its spec.Stage descriptor plus the context built for it,
// by lowering or, on a worker, by NewSpecStage from the shipped descriptor —
// against a block source, and hands its result blocks to an emit callback.
// It is the one task body and its one entry, on both runtimes: a worker calls
// it with a network pull and an upload, rt.RunStage's in-process arm with the
// coordinator-side fetch (rt.Stage.Fetch) and a slice that rt.Stage.Collect
// then takes, as the coordinator takes a worker's. Only where a block comes
// from differs.

// source is a task's block source. fetch resolves its external block
// references: bound input blocks and, in the fuse phase, aggregated
// main-multiplication partials; a nil matrix with nil error is an all-zero
// block.
//
// ahead is the task's read-ahead hook, or nil when the source takes none. A
// task hands the hook, before a loop whose fetches it knows — a
// multiplication's k loop, a fuse task's partials — those references in the
// order the loop fetches them; the source may start moving them then. A hint
// is never a fetch: the task still fetches each reference it named, and may
// fetch others between them.
type source struct {
	fetch func(ref spec.BlockRef) (matrix.Mat, error)
	ahead *readAhead
}

// readAhead is a task's read-ahead hook and the list the task builds for it,
// reused from loop to loop.
type readAhead struct {
	hint func(refs []spec.BlockRef)
	refs []spec.BlockRef
}

// bindSource serves blocks from coordinator-side state: the operator's
// bindings and (when R > 1) the partial-result sink filled by stage one. Its
// fetch is the stage's rt.Stage.Fetch.
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
// co-partitioned inputs, input epochs and cache scope and to the task's
// arena.
func (st *Stage) evaluator(pc *planCtx, task *cluster.Task, src source, ta *taskArena, kLo, kHi int) *evaluator {
	ev := newEvaluator(pc, task, src, st.Spec.BlockSize, kLo, kHi)
	ev.colocated, ev.caching, ev.arena = st.Spec.Colocated, &st.Spec, ta
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
func (st *Stage) outputs(task *cluster.Task, src source, ta *taskArena, kHi int) []taskOut {
	outs := make([]taskOut, len(st.outs))
	for i, pc := range st.outs {
		o := &outs[i]
		o.ev, o.kind = st.evaluator(pc, task, src, ta, 0, kHi), aggKind(i)
		o.ev.memo = outs[0].ev.memo
		if pc.agg != nil {
			o.partial = block.New(pc.agg.Rows, pc.agg.Cols, st.Spec.BlockSize)
		}
	}
	return outs
}

// eval computes output block (bi, bj) and folds it into the partial or emits
// it; a block emitted as it is is built on the heap. The blocks it built and
// dropped are the arena's again afterwards.
func (o *taskOut) eval(bi, bj int, emit emitFn) {
	agg := o.ev.pc.agg
	to := toHeap
	if agg != nil {
		to = toBlock
	}
	endKernel := o.ev.trace.Begin("kernel", "taskop")
	blk := o.ev.evalTo(o.ev.pc.root, bi, bj, to)
	endKernel()
	if agg != nil {
		aggregateLocal(o.ev.task, o.partial, agg.Agg, bi, bj, blk)
	} else if blk != nil {
		emit(spec.OutFinal, bi, bj, blk)
	}
	o.ev.arena.endBlock()
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

// runCuboidTask handles the single-stage (R == 1) cuboid execution: the task
// computes final output blocks of its (p, q) partition.
func (st *Stage) runCuboidTask(task *cluster.Task, src source, ta *taskArena, emit emitFn) error {
	q := len(st.Spec.JRanges)
	return st.evalOutputs(&st.outputs(task, src, ta, st.Spec.GK)[0], task.ID/q, task.ID%q, emit)
}

// runPartialTask handles stage one of an R > 1 execution: partial
// main-multiplication results over the task's k-range, shuffled out.
func (st *Stage) runPartialTask(task *cluster.Task, src source, ta *taskArena, emit emitFn) error {
	sp := &st.Spec
	q, r := len(sp.JRanges), len(sp.KRanges)
	pi := task.ID / (q * r)
	qi := (task.ID / r) % q
	ri := task.ID % r
	kr := sp.KRanges[ri]
	pc := st.outs[0]
	ev := st.evaluator(pc, task, src, ta, kr.Lo, kr.Hi)
	tt := task.Trace()
	ev.visit(sp.IRanges[pi], sp.JRanges[qi], false, func(bi, bj int) {
		var part matrix.Mat
		endKernel := tt.Begin("kernel", "taskop")
		if pc.mask != nil {
			if pattern, vals := ev.maskedMM(bi, bj); pattern != nil { // else sparsity exploitation: nothing to do
				part = pattern.WithValues(vals)
			}
		} else {
			part = ev.evalTo(pc.plan.MainMM, bi, bj, toHeap)
		}
		endKernel()
		if part != nil {
			task.SendBlock(part)
			emit(spec.OutPartial, bi, bj, part)
		}
		ta.endBlock()
	})
	return nil
}

// runFuseTask handles stage two of an R > 1 execution: the task pins the
// aggregated multiplication results of its partition and applies the O-space
// chain once.
func (st *Stage) runFuseTask(task *cluster.Task, src source, ta *taskArena, emit emitFn) error {
	sp := &st.Spec
	q := len(sp.JRanges)
	pi, qi := task.ID/q, task.ID%q
	out := &st.outputs(task, src, ta, sp.GK)[0]
	out.ev.pinned = true
	ri, rj := sp.IRanges[pi], sp.JRanges[qi]
	if ra := src.ahead; ra != nil {
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
			out.ev.memo[out.ev.memoKey(out.ev.pc.plan.MainMM.ID, bi, bj)] = memoEntry{blk: blk, held: true} // maskedMM / evalBlock find it pinned
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
func (st *Stage) runGridTask(task *cluster.Task, src source, ta *taskArena, emit emitFn) error {
	sp := &st.Spec
	outs := st.outputs(task, src, ta, sp.GK)
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

// evalOutputs evaluates every block of out in partition (pi, qi), in
// super-tiles (evaluator.visit), and emits final blocks, or task-local
// aggregates when the plan roots in an aggregation. Sinks take final blocks
// by position, so the visit order is free, but a sum, min or max over all
// blocks folds them in row-major order.
func (st *Stage) evalOutputs(out *taskOut, pi, qi int, emit emitFn) error {
	sp := &st.Spec
	agg := out.ev.pc.agg
	rowMajor := agg != nil && agg.Agg != matrix.RowSum && agg.Agg != matrix.ColSum
	out.ev.visit(sp.IRanges[pi], sp.JRanges[qi], rowMajor, func(bi, bj int) {
		if sp.Swapped {
			bi, bj = bj, bi
		}
		out.eval(bi, bj, emit)
	})
	out.flush(emit)
	return nil
}

// broadcastSides meters a full copy of every side matrix to the task, as the
// BFO's matrix consolidation step does, and seeds the evaluator's fetch memo
// so evaluation neither double-counts nor re-pulls them.
func broadcastSides(sides []*dag.Node, src source, ev *evaluator, task *cluster.Task) {
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
				ev.memo[ev.memoKey(in.ID, bi, bj)] = memoEntry{blk: blk, held: true, fetched: true}
			}
		}
	}
}

// NewSpecStage makes a shipped stage descriptor ready to execute on a
// worker: it rebuilds the plan — of a multi-aggregation, the plans — sp
// describes, and the stage's context over them with the constructor lowering
// uses, once; every task of the stage the worker is assigned runs against
// the result. A node ID the memo key cannot hold is refused here, before the
// context sizes a role slice by it.
func NewSpecStage(sp *spec.Stage) (*Stage, error) {
	outs := make([]*planCtx, 1+len(sp.Group))
	for i, ps := range append([]spec.PlanSpec{sp.Plan}, sp.Group...) {
		for _, ns := range ps.Nodes {
			if uint(ns.ID) >= 1<<memoNodeBits {
				return nil, fmt.Errorf("%w: node %d", errMemoKeyRange, ns.ID)
			}
		}
		p, err := ps.Build()
		if err != nil {
			return nil, err
		}
		outs[i] = newPlanCtx(p, sp.NoMask)
	}
	return newStage(*sp, outs), nil
}

// RunTask runs task.ID of the stage: the single task body both runtimes
// share. Blocks are pulled through fetch and result blocks handed to emit as
// they are produced (an emit error fails the task). ahead, when not nil, is
// told before a loop which blocks the loop will fetch, in fetch order
// (source.ahead); a task bound to a block cache never calls it, since a hit
// must not be fetched. Metering lands on task, whose runtime hands it its
// block cache, kernel pool and trace and reports what it metered. A task
// carrying a block cache first drops its entries of each input the stage
// names at an older epoch — rebound since, they can never hit again — so a
// cache is coherent with the stage it serves without anyone tracking what it
// holds. The blocks the task builds and drops come from a task arena, reset
// when the attempt ends however it ends; a result block that lies there
// leaves as a clone.
func (st *Stage) RunTask(task *cluster.Task, fetch func(spec.BlockRef) (matrix.Mat, error), ahead func([]spec.BlockRef), emit func(kind uint8, bi, bj int, blk matrix.Mat) error) error {
	if sp := &st.Spec; task.ID < 0 || task.ID >= sp.NumTasks {
		return fmt.Errorf("exec: task %d outside stage %q (%d tasks)", task.ID, sp.Name, sp.NumTasks)
	}
	src := source{fetch: fetch}
	if cache := task.Cache(); cache != nil {
		for _, ne := range st.Spec.Epochs {
			cache.InvalidateStale(ne.Node, ne.Epoch)
		}
	} else if ahead != nil {
		src.ahead = &readAhead{hint: ahead}
	}
	ta := taskArenas.get()
	defer func() {
		ta.reset()
		taskArenas.put(ta)
	}()
	out := func(kind uint8, bi, bj int, blk matrix.Mat) {
		if err := emit(kind, bi, bj, ta.escape(blk)); err != nil {
			panic(execPanic{fmt.Errorf("exec: sending result block (%d,%d): %w", bi, bj, err)})
		}
	}
	if tt := task.Trace(); tt != nil {
		// Every resolved block reference records a "fetch" sub-span (a
		// binding lookup in-process, a network pull on a worker) and every
		// result block a "send" (a slice append in-process, an encode and
		// upload on a worker).
		src.fetch = func(ref spec.BlockRef) (matrix.Mat, error) {
			end := tt.Begin("fetch", "taskop")
			m, err := fetch(ref)
			end()
			return m, err
		}
		send := out
		out = func(kind uint8, bi, bj int, blk matrix.Mat) {
			end := tt.Begin("send", "taskop")
			send(kind, bi, bj, blk)
			end()
		}
	}
	return runTask(func() error {
		switch st.Spec.Phase {
		case spec.PhaseCuboid:
			return st.runCuboidTask(task, src, ta, out)
		case spec.PhasePartial:
			return st.runPartialTask(task, src, ta, out)
		case spec.PhaseFuse:
			return st.runFuseTask(task, src, ta, out)
		case spec.PhaseGrid:
			return st.runGridTask(task, src, ta, out)
		}
		return fmt.Errorf("exec: unknown stage phase %q", st.Spec.Phase)
	})
}
