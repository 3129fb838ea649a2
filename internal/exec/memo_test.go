package exec

import (
	"errors"
	"slices"
	"testing"
)

// TestMemoKeyRangeFailsLoudly: a node ID or block coordinate the one-word
// memo key cannot hold fails the task with errMemoKeyRange instead of
// aliasing another block, the widest keys that fit stay distinct, and a
// shipped stage naming such a node is refused before any task runs.
func TestMemoKeyRangeFailsLoudly(t *testing.T) {
	const maxNode, maxCoord = 1<<memoNodeBits - 1, 1<<memoCoordBits - 1
	ev := &evaluator{}
	for _, k := range [][3]int{
		{maxNode + 1, 0, 0}, {-1, 0, 0},
		{0, maxCoord + 1, 0}, {0, -1, 0},
		{0, 0, maxCoord + 1}, {0, 0, -1},
		{1 << 40, 1, 1},
	} {
		err := runTask(func() error { ev.memoKey(k[0], k[1], k[2]); return nil })
		if !errors.Is(err, errMemoKeyRange) {
			t.Errorf("memoKey%v: error %v, want errMemoKeyRange", k, err)
		}
	}
	seen := map[uint64][3]int{}
	for _, k := range [][3]int{
		{0, 0, 0}, {0, 0, maxCoord}, {0, 1, 0}, {0, maxCoord, 0}, {0, maxCoord, maxCoord},
		{1, 0, 0}, {maxNode, 0, 0}, {maxNode, maxCoord, maxCoord},
	} {
		var key uint64
		if err := runTask(func() error { key = ev.memoKey(k[0], k[1], k[2]); return nil }); err != nil {
			t.Fatalf("memoKey%v: %v", k, err)
		}
		if other, dup := seen[key]; dup {
			t.Fatalf("memoKey%v == memoKey%v", k, other)
		}
		seen[key] = k
	}

	g, _ := nmfGraph(t, 40, 33, 15, 0.05)
	lo, err := (&FusedOp{Plan: fullPlan(t, g), P: 2, Q: 2, R: 1}).Lower(testCluster(7).Config())
	if err != nil {
		t.Fatal(err)
	}
	sp := lo.Stages[0].Spec
	if _, err := NewSpecStage(&sp); err != nil {
		t.Fatalf("shipped stage refused: %v", err)
	}
	sp.Plan.Nodes = slices.Clone(sp.Plan.Nodes)
	sp.Plan.Nodes[0].ID = maxNode + 1
	if _, err := NewSpecStage(&sp); !errors.Is(err, errMemoKeyRange) {
		t.Fatalf("stage naming node %d: error %v, want errMemoKeyRange", maxNode+1, err)
	}
}
