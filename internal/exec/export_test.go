package exec

import (
	"math"
	"sync/atomic"
	"testing"

	"fuseme/internal/matrix"
)

// PoisonTaskArenas makes every task arena reset fill the blocks it takes back
// with NaN until t ends, and returns the count of blocks filled so far.
func PoisonTaskArenas(t testing.TB) *atomic.Int64 {
	var n atomic.Int64
	poison := func(taken []*matrix.Dense) {
		for _, d := range taken {
			for i := range d.Data {
				d.Data[i] = math.NaN()
			}
		}
		n.Add(int64(len(taken)))
	}
	resetHook.Store(&poison)
	t.Cleanup(func() { resetHook.Store(nil) })
	return &n
}

// ArenaBlockLeavesAsClone reports whether a block taken from either region
// of a task arena leaves its task as an equal copy and a block built
// elsewhere as itself.
func ArenaBlockLeavesAsClone() (cloned, kept bool) {
	ta := new(taskArena)
	cloned = true
	for _, r := range []*region{&ta.held, &ta.block} {
		d := r.dense(2, 3)
		copy(d.Data, []float64{1, 2, 3, 4, 5, 6})
		out := ta.escape(d)
		cloned = cloned && out != matrix.Mat(d) && matrix.Equal(out, d)
	}
	fresh := matrix.NewDense(2, 3)
	return cloned, ta.escape(fresh) == matrix.Mat(fresh)
}

// SetSuperTileCols makes every task visit super-tiles of cols column blocks
// in place of the L2 budget's width until t ends; 1 visits the blocks one by
// one, as a task did before super-tiles.
func SetSuperTileCols(t testing.TB, cols int) {
	superTileHook.Store(int64(cols))
	t.Cleanup(func() { superTileHook.Store(0) })
}
