//go:build amd64

package matrix_test

import (
	"testing"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/dag"
	"fuseme/internal/exec"
	"fuseme/internal/fusion"
	"fuseme/internal/matrix"
	"fuseme/internal/parallel/paralleltest"
)

// TestFusedTaskPortableKernels is the forced-level arm of the executor's
// TestFusedTaskThreadInvariance, which cannot reach the dispatch level from
// its package: the GNMF update U * (t(V) %*% X) / ((t(W) %*% V) %*% U), the
// NMF kernel X * log(V %*% t(F) + eps) and the AutoEncoder layer
// sigmoid(V %*% U - 16 + b), planned as one fused operator each and run
// through the executor on 128-wide blocks — GEMM as stored and through
// swapped strides, SDDMM, both sparse x dense row kernels, dense strips and
// masked passes, the log and sigmoid strip kernels — give, with the assembly
// kernels off and (on a machine with the ZMM micro-kernel) held at the AVX2
// forms, at 1, 2 and 4 kernel threads, the bits the machine's own kernels
// give. So the portable twins, and every assembly form, run end to end on the
// machine that runs the tests.
func TestFusedTaskPortableKernels(t *testing.T) {
	if matrix.Level() == matrix.LevelPortable {
		t.Skip("CPU lacks AVX or FMA3: the portable kernels are the only ones")
	}
	const users, items, k, bs = 512, 384, 64, 128
	flats := map[string]matrix.Mat{
		"X": matrix.RandomSparse(users, items, 0.05, 1, 5, 1),
		"U": matrix.RandomDense(k, items, 0.1, 0.9, 2),
		"V": matrix.RandomDense(users, k, 0.1, 0.9, 3),
		"W": matrix.RandomDense(users, k, 0.1, 0.9, 3),
		"F": matrix.RandomDense(items, k, 0.1, 0.9, 4),
		"B": matrix.RandomDense(users, 1, -1, 1, 5),
	}
	builds := map[string]func(g *dag.Graph, in map[string]*dag.Node) *dag.Node{
		"gnmf-update": func(g *dag.Graph, in map[string]*dag.Node) *dag.Node {
			num := g.Binary(matrix.Mul, in["U"], g.MatMul(g.Transpose(in["V"]), in["X"]))
			return g.Binary(matrix.Div, num, g.MatMul(g.MatMul(g.Transpose(in["W"]), in["V"]), in["U"]))
		},
		"nmf-kernel": func(g *dag.Graph, in map[string]*dag.Node) *dag.Node {
			mm := g.MatMul(in["V"], g.Transpose(in["F"]))
			return g.Binary(matrix.Mul, in["X"], g.Unary("log", g.Binary(matrix.Add, mm, g.Scalar(1e-3))))
		},
		"ae-layer": func(g *dag.Graph, in map[string]*dag.Node) *dag.Node {
			mm := g.MatMul(in["V"], in["U"])
			return g.Unary("sigmoid", g.Binary(matrix.Add, g.Binary(matrix.Sub, mm, g.Scalar(16)), in["B"]))
		},
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			g := dag.NewGraph()
			in, bind := map[string]*dag.Node{}, exec.Bindings{}
			for name, m := range flats {
				r, c := m.Dims()
				in[name] = g.Input(name, r, c, matrix.Density(m))
			}
			root := build(g, in)
			g.SetOutput("O", root)
			members := map[int]*dag.Node{}
			for _, n := range g.Nodes() {
				if !n.IsLeaf() {
					members[n.ID] = n
				}
			}
			plan, err := fusion.NewPlan(root, members)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range g.InputNodes() {
				bind[n.ID] = block.FromMat(flats[n.Name], bs)
			}
			run := func(t *testing.T, threads int) *block.Matrix {
				paralleltest.ForceThreads(t, threads, 1)
				cl := cluster.MustNew(cluster.Config{
					Nodes: 1, TasksPerNode: 1, TaskMemBytes: 1 << 40, NetBandwidth: 1e9, CompBandwidth: 1e12,
					BlockSize: bs,
				})
				out, err := (&exec.FusedOp{Plan: plan, P: 2, Q: 1, R: 1}).Execute(cl, bind)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			want := run(t, 1)
			arms := []struct {
				name  string
				level int
			}{{"portable", matrix.LevelPortable}, {"avx2", matrix.LevelAVX2}}
			for _, arm := range arms {
				t.Run(arm.name, func(t *testing.T) {
					if matrix.Level() <= arm.level {
						t.Skip("CPU or OS lacks AVX-512F: the AVX2 kernels are the machine's own, which the other arm is compared with")
					}
					matrix.ForceLevel(t, arm.level)
					for _, threads := range []int{1, 2, 4} {
						got := run(t, threads)
						want.ForEach(func(key block.Key, w matrix.Mat) {
							if !matrix.BitEqual(w, got.Block(key.Row, key.Col)) {
								t.Errorf("block (%d,%d): %s kernels at %d threads differ from the machine's own", key.Row, key.Col, arm.name, threads)
							}
						})
					}
				})
			}
		})
	}
}
