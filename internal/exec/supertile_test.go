package exec_test

import (
	"fmt"
	"testing"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/exec"
	"fuseme/internal/lang"
	"fuseme/internal/matrix"
	"fuseme/internal/ref"
	"fuseme/internal/workloads"
)

// TestSuperTileOrderKeepsBits: visiting a masked plan's blocks in super-tiles
// — several column blocks of one block row per SDDMM kernel call, column
// group by column group — changes no bit of any result. The NMF kernel, its
// sum (a full aggregate, which folds its blocks in row-major order) and the
// ALS loss (whose right operand is transposed per block, not folded) run on
// the simulated cluster and over loopback TCP workers, each as planned and
// with every multiplication forced to R = 2 (partial and fuse stages), with
// super-tiles as wide as the L2 budget allows, 2 and 3 column blocks wide,
// and with blocks visited one by one; every run must equal the one-by-one run
// bit for bit, and the single-node reference to 1e-9. X's density, 0.05, is
// below fusion.OuterSparsityThreshold, so the SDDMM is masked; at 100 x 92 in
// blocks of 8 a task spans several column blocks, and a sum folded in
// another order than row-major shows in the last bits.
func TestSuperTileOrderKeepsBits(t *testing.T) {
	const rows, cols, k, d = 100, 92, 9, 0.05
	decls := map[string]lang.InputDecl{
		"X": {Rows: rows, Cols: cols, Sparsity: d},
		"U": {Rows: rows, Cols: k, Sparsity: 1},
		"V": {Rows: cols, Cols: k, Sparsity: 1},
	}
	sum, err := lang.Parse("s = sum(X * log(U %*% t(V) + 1e-3))", decls)
	if err != nil {
		t.Fatal(err)
	}
	nmfFlats := map[string]matrix.Mat{
		"X": matrix.RandomSparse(rows, cols, d, 0.5, 1.5, 31),
		"U": matrix.RandomDense(rows, k, 0.5, 1.5, 32),
		"V": matrix.RandomDense(cols, k, 0.5, 1.5, 33),
	}
	cases := []arenaCase{
		{"nmf-kernel", workloads.NMFKernel(rows, cols, k, d), nmfFlats, true},
		{"nmf-kernel-sum", sum, nmfFlats, true},
		{"als", workloads.ALSLoss(rows, cols, k, d), map[string]matrix.Mat{
			"X": matrix.RandomSparse(rows, cols, d, 0.5, 1.5, 34),
			"U": matrix.RandomDense(rows, k, -0.5, 0.5, 35),
			"V": matrix.RandomDense(k, cols, -0.5, 0.5, 36),
		}, true},
	}
	cfg := cluster.Config{
		Nodes: 2, TasksPerNode: 2, TaskMemBytes: 1 << 30,
		NetBandwidth: 1e9, CompBandwidth: 50e9, BlockSize: 8,
	}
	for _, backend := range []string{"sim", "tcp"} {
		rtm := openBackend(t, backend, cfg)
		for _, tc := range cases {
			want, err := ref.Evaluate(tc.graph, tc.flats)
			if err != nil {
				t.Fatalf("%s: reference: %v", tc.name, err)
			}
			inputs := make(map[string]*block.Matrix, len(tc.flats))
			for name, m := range tc.flats {
				inputs[name] = block.FromMat(m, cfg.BlockSize)
			}
			for _, forceR := range []bool{false, true} {
				exec.SetSuperTileCols(t, 1)
				oneByOne := runArenaCase(t, rtm, tc.graph, inputs, forceR, tc.masked)
				for _, width := range []int{0, 2, 3} { // 0: the L2 budget's
					exec.SetSuperTileCols(t, width)
					got := runArenaCase(t, rtm, tc.graph, inputs, forceR, tc.masked)
					what := fmt.Sprintf("%s/%s/R2=%v/width %d", backend, tc.name, forceR, width)
					for name, w := range want {
						g, ok := got[name]
						if !ok {
							t.Fatalf("%s: no output %q", what, name)
						}
						requireBitIdentical(t, what+"/"+name, g, oneByOne[name])
						if !matrix.EqualApprox(g.ToMat(), w, 1e-9) {
							t.Errorf("%s: output %q differs from the reference", what, name)
						}
					}
				}
			}
		}
	}
}
