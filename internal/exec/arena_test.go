package exec_test

import (
	"slices"
	"testing"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/dag"
	"fuseme/internal/exec"
	"fuseme/internal/fusion"
	"fuseme/internal/lang"
	"fuseme/internal/matrix"
	"fuseme/internal/ref"
	"fuseme/internal/rt"
	"fuseme/internal/workloads"
)

// arenaCase is one query of TestTaskArenaNeverEscapes and its inputs;
// masked says its plan must run the masked SDDMM.
type arenaCase struct {
	name   string
	graph  *dag.Graph
	flats  map[string]matrix.Mat
	masked bool
}

// productQuery emits products as they are — dense x dense, and dense x CSR
// through the transposed accumulator's write-back — and folds chains that
// read two products each into aggregates: what a task builds for an emitted
// block and for an aggregated root.
const productQuery = `
P = U %*% V
Q = t(U) %*% X
s = sum((U %*% V2) * W + U2 %*% V)
r = rowSums((t(U2) %*% X) / (t(U2) %*% W + 1))
`

func arenaCases(t *testing.T) []arenaCase {
	ae := workloads.AutoEncoderConfig{Features: 40, Batch: 24, H1: 20, H2: 12}
	products, err := lang.Parse(productQuery, map[string]lang.InputDecl{
		"U": {Rows: 40, Cols: 10, Sparsity: 1}, "U2": {Rows: 40, Cols: 10, Sparsity: 1}, "V": {Rows: 10, Cols: 36, Sparsity: 1},
		"V2": {Rows: 10, Cols: 36, Sparsity: 1}, "W": {Rows: 40, Cols: 36, Sparsity: 1},
		"X": {Rows: 40, Cols: 36, Sparsity: 0.15},
	})
	if err != nil {
		t.Fatal(err)
	}
	return []arenaCase{
		{"gnmf", workloads.GNMF(40, 36, 10, 0.15), map[string]matrix.Mat{
			"X": matrix.RandomSparse(40, 36, 0.15, 0.5, 1.5, 1),
			"U": matrix.RandomDense(10, 36, 0.5, 1.5, 2),
			"V": matrix.RandomDense(40, 10, 0.5, 1.5, 3),
		}, false},
		{"autoencoder", workloads.AutoEncoderStep(ae), map[string]matrix.Mat{
			"XT": matrix.RandomDense(ae.Features, ae.Batch, 0, 1, 4),
			"W1": matrix.RandomDense(ae.H1, ae.Features, -0.3, 0.3, 5),
			"b1": matrix.RandomDense(ae.H1, 1, -0.1, 0.1, 6),
			"W2": matrix.RandomDense(ae.H2, ae.H1, -0.3, 0.3, 7),
			"b2": matrix.RandomDense(ae.H2, 1, -0.1, 0.1, 8),
			"W3": matrix.RandomDense(ae.H1, ae.H2, -0.3, 0.3, 9),
			"b3": matrix.RandomDense(ae.H1, 1, -0.1, 0.1, 10),
			"W4": matrix.RandomDense(ae.Features, ae.H1, -0.3, 0.3, 11),
			"b4": matrix.RandomDense(ae.Features, 1, -0.1, 0.1, 12),
		}, false},
		{"als", workloads.ALSLoss(36, 30, 8, 0.1), map[string]matrix.Mat{
			"X": matrix.RandomSparse(36, 30, 0.1, 0.5, 1.5, 13),
			"U": matrix.RandomDense(36, 8, -0.5, 0.5, 14),
			"V": matrix.RandomDense(8, 30, -0.5, 0.5, 15),
		}, false},
		// X below fusion.OuterSparsityThreshold, so the SDDMM is masked.
		{"nmf-kernel", workloads.NMFKernel(40, 34, 9, 0.05), map[string]matrix.Mat{
			"X": matrix.RandomSparse(40, 34, 0.05, 0.5, 1.5, 16),
			"U": matrix.RandomDense(40, 9, 0.5, 1.5, 17),
			"V": matrix.RandomDense(34, 9, 0.5, 1.5, 18),
		}, true},
		{"multiagg", workloads.MultiAgg(30, 28, 0.2), map[string]matrix.Mat{
			"X": matrix.RandomSparse(30, 28, 0.2, -1, 1, 19),
			"U": matrix.RandomDense(30, 28, -1, 1, 20),
			"V": matrix.RandomDense(30, 28, -1, 1, 21),
		}, false},
		{"products", products, map[string]matrix.Mat{
			"U":  matrix.RandomDense(40, 10, 0.5, 1.5, 22),
			"U2": matrix.RandomDense(40, 10, 0.5, 1.5, 27),
			"V":  matrix.RandomDense(10, 36, 0.5, 1.5, 23),
			"V2": matrix.RandomDense(10, 36, -1, 1, 24),
			"W":  matrix.RandomDense(40, 36, 0.5, 1.5, 25),
			"X":  matrix.RandomSparse(40, 36, 0.15, 0.5, 1.5, 26),
		}, false},
	}
}

// TestTaskArenaNeverEscapes: every block a task builds and does not emit as
// it is lies in a task arena — held until the task ends, or until the output
// block it serves was emitted or folded — and none of them may be read after
// its region was reset. With every reset filling the blocks it takes back
// with NaN, GNMF, the AutoEncoder step, the ALS loss, the NMF kernel (its
// masked SDDMM), a multi-aggregation (one stage, several outputs) and a
// query of emitted products and of aggregated chains over products run on
// the simulated cluster and over loopback TCP workers, each as planned and
// with every multiplication's plan forced to R = 2 (partial and fuse
// stages), and every output must match the single-node reference. A result
// that still pointed into an arena would read NaN, or another task's values;
// so would an emitted product taken from the arena and not cloned.
func TestTaskArenaNeverEscapes(t *testing.T) {
	poisoned := exec.PoisonTaskArenas(t)
	if cloned, kept := exec.ArenaBlockLeavesAsClone(); !cloned || !kept {
		t.Fatalf("escape rule: arena block cloned %v, other block kept %v", cloned, kept)
	}
	cfg := cluster.Config{
		Nodes: 2, TasksPerNode: 2, TaskMemBytes: 1 << 30,
		NetBandwidth: 1e9, CompBandwidth: 50e9, BlockSize: 8,
	}
	for _, backend := range []string{"sim", "tcp"} {
		rtm := openBackend(t, backend, cfg)
		for _, tc := range arenaCases(t) {
			want, err := ref.Evaluate(tc.graph, tc.flats)
			if err != nil {
				t.Fatalf("%s: reference: %v", tc.name, err)
			}
			inputs := make(map[string]*block.Matrix, len(tc.flats))
			for name, m := range tc.flats {
				inputs[name] = block.FromMat(m, cfg.BlockSize)
			}
			for _, forceR := range []bool{false, true} {
				before := poisoned.Load()
				got := runArenaCase(t, rtm, tc.graph, inputs, forceR, tc.masked)
				for name, w := range want {
					if g, ok := got[name]; !ok || !matrix.EqualApprox(g.ToMat(), w, 1e-8) {
						t.Errorf("%s/%s/R2=%v: output %q differs from the reference", backend, tc.name, forceR, name)
					}
				}
				n := poisoned.Load() - before
				t.Logf("%s/%s/R2=%v: %d arena blocks poisoned", backend, tc.name, forceR, n)
				if n == 0 && backend == "sim" && !tc.masked { // the NMF kernel reads t(V) as V's blocks: it builds nothing it drops
					t.Errorf("%s/%s/R2=%v: no task took a block from its arena", backend, tc.name, forceR)
				}
			}
		}
	}
	if poisoned.Load() == 0 {
		t.Fatal("no task took a block from its arena: the test checks nothing")
	}
}

// runArenaCase compiles g for rtm's cluster and executes it; forceR sets every
// cuboid multiplication's plan to (2, 1, 2), and masked requires an operator
// that runs the masked SDDMM.
func runArenaCase(t *testing.T, rtm rt.Runtime, g *dag.Graph, inputs map[string]*block.Matrix, forceR, masked bool) map[string]*block.Matrix {
	t.Helper()
	cfg := rtm.Config()
	pp, err := (core.FuseME{}).Compile(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if masked && !slices.ContainsFunc(pp.Ops, func(op *core.PhysOp) bool { return !op.NoMask && fusion.FindOuterMask(op.Plan) != nil }) {
		t.Fatal("no operator of the plan runs the masked SDDMM")
	}
	if forceR {
		for _, op := range pp.Ops {
			if op.Strategy == exec.Cuboid && op.Plan.MainMM != nil {
				op.P, op.Q, op.R = 2, 1, 2
			}
		}
		if err := pp.Lower(cfg); err != nil {
			t.Fatal(err)
		}
	}
	out, err := core.Execute(pp, rtm, inputs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
