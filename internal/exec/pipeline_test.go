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
			r.collect(task, []spec.OutBlock{{Kind: spec.OutAgg, BI: task}, {Kind: spec.OutPartial, BI: task, BJ: 1}})
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
	r.collect(3, []spec.OutBlock{{Kind: spec.OutFinal, BI: 7, BJ: 8}, {Kind: spec.OutAgg, BI: 3}})
	if len(got) != 1 || got[0].bi != 7 || got[0].bj != 8 {
		t.Fatalf("OutFinal from a not-yet-ready task did not pass through alone: %+v", got)
	}
}

// pending returns how many tasks have buffered, not-yet-folded output
// (completed tasks past a gap). Tests use it to assert the reducer drains.
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
