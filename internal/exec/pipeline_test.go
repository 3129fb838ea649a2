package exec

import (
	"math/rand"
	"testing"

	"fuseme/internal/matrix"
	"fuseme/internal/rt/spec"
)

// recordedEmit captures the fold sequence a stage reducer routed.
type recordedEmit struct {
	kind   uint8
	task   int // encoded in bi for the buffered kinds below
	bi, bj int
}

// TestStageReducerOrderInvariance: whatever order tasks complete in, the
// routed fold sequence for ordered kinds (OutAgg, OutPartial) is exactly the
// task-index order. This is the property that makes results independent of
// scheduling and work-stealing.
func TestStageReducerOrderInvariance(t *testing.T) {
	const numTasks = 17
	reference := func() []recordedEmit {
		var out []recordedEmit
		for task := 0; task < numTasks; task++ {
			out = append(out, recordedEmit{kind: spec.OutAgg, task: task, bi: task, bj: 0})
			out = append(out, recordedEmit{kind: spec.OutPartial, task: task, bi: task, bj: 1})
		}
		return out
	}()

	for seed := int64(0); seed < 20; seed++ {
		var got []recordedEmit
		route := func(kind uint8, bi, bj int, blk matrix.Mat) {
			got = append(got, recordedEmit{kind: kind, task: bi, bi: bi, bj: bj})
		}
		r := newStageReducer(numTasks, route)
		order := rand.New(rand.NewSource(seed)).Perm(numTasks)
		for _, task := range order {
			emit := r.emitFor(task)
			emit(spec.OutAgg, task, 0, nil)
			emit(spec.OutPartial, task, 1, nil)
			r.complete(task)
		}
		if r.pending() != 0 {
			t.Fatalf("seed=%d: %d tasks still pending after every task completed", seed, r.pending())
		}
		if len(got) != len(reference) {
			t.Fatalf("seed=%d: %d emissions, want %d", seed, len(got), len(reference))
		}
		for i := range got {
			if got[i] != reference[i] {
				t.Fatalf("seed=%d: emission %d = %+v, want %+v (completion order %v)",
					seed, i, got[i], reference[i], order)
			}
		}
	}
}

// TestStageReducerFinalPassThrough: OutFinal blocks land in disjoint output
// slots, so they must route immediately rather than waiting for the ordered
// prefix — that is what lets final results stream while earlier tasks are
// still running.
func TestStageReducerFinalPassThrough(t *testing.T) {
	var got []recordedEmit
	route := func(kind uint8, bi, bj int, blk matrix.Mat) {
		got = append(got, recordedEmit{kind: kind, bi: bi, bj: bj})
	}
	r := newStageReducer(4, route)
	r.emitFor(3)(spec.OutFinal, 7, 8, nil)
	if len(got) != 1 || got[0].bi != 7 || got[0].bj != 8 {
		t.Fatalf("OutFinal from a not-yet-ready task did not pass through: %+v", got)
	}
	r.emitFor(3)(spec.OutAgg, 3, 0, nil)
	if len(got) != 1 {
		t.Fatal("OutAgg from task 3 folded before tasks 0-2 completed")
	}
}

// TestStageReducerRetryReset: a failed attempt's partial emissions must be
// discarded by reset, so a retried task contributes exactly one task's
// worth of output — the no-partial-double-fold half of the exactly-once
// guarantee.
func TestStageReducerRetryReset(t *testing.T) {
	var got []recordedEmit
	route := func(kind uint8, bi, bj int, blk matrix.Mat) {
		got = append(got, recordedEmit{kind: kind, bi: bi, bj: bj})
	}
	r := newStageReducer(2, route)

	// Attempt 1 of task 0 emits, then dies before complete.
	r.reset(0)
	r.emitFor(0)(spec.OutAgg, 100, 0, nil)

	// Task 1 completes while task 0 retries; nothing may fold yet.
	r.reset(1)
	r.emitFor(1)(spec.OutAgg, 1, 0, nil)
	r.complete(1)
	if len(got) != 0 {
		t.Fatalf("folded %d emissions before task 0 completed", len(got))
	}

	// Attempt 2 of task 0 succeeds.
	r.reset(0)
	r.emitFor(0)(spec.OutAgg, 0, 0, nil)
	r.complete(0)

	want := []recordedEmit{{kind: spec.OutAgg, bi: 0}, {kind: spec.OutAgg, bi: 1}}
	if len(got) != len(want) {
		t.Fatalf("folded %d emissions, want %d (failed attempt leaked?)", len(got), len(want))
	}
	for i := range want {
		if got[i].bi != want[i].bi {
			t.Fatalf("emission %d from block row %d, want %d", i, got[i].bi, want[i].bi)
		}
	}
}

// pending returns how many tasks have buffered, not-yet-folded output
// (completed tasks past a gap, plus in-flight buffers). Tests use it to
// assert the reducer drains.
func (r *stageReducer) pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for i := r.next; i < len(r.buf); i++ {
		if len(r.buf[i]) > 0 || r.done[i] {
			n++
		}
	}
	return n
}
