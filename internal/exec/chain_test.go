package exec

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"fuseme/internal/block"
	"fuseme/internal/cfg"
	"fuseme/internal/cluster"
	"fuseme/internal/dag"
	"fuseme/internal/fusion"
	"fuseme/internal/lang"
	"fuseme/internal/matrix"
	"fuseme/internal/parallel/paralleltest"
	"fuseme/internal/ref"
)

// Differential tests of the compiled chain and the in-place kernels against
// the single-node reference, which evaluates one operator at a time.

const (
	chainM, chainN, chainK = 21, 17, 19 // blocks of 8: edge blocks 5 and 1 wide, 3 k-blocks
	chainBS                = 8
)

// chainInputs are the operands random chains draw from: dense, sparse (with
// an all-zero block and empty rows), all-zero, row/column vectors and a 1x1
// matrix.
func chainInputs() map[string]matrix.Mat {
	s := matrix.ToDense(matrix.RandomSparse(chainM, chainN, 0.09, 0.5, 1.5, 3))
	for i := 0; i < chainM; i++ {
		for j := 0; j < chainN; j++ {
			if (i < 8 && j >= 8 && j < 16) || i == 10 || i == 11 { // block (0,1); two rows
				s.Set(i, j, 0)
			}
		}
	}
	return map[string]matrix.Mat{
		"A": matrix.RandomDense(chainM, chainN, 0.5, 1.5, 1),
		"B": matrix.RandomDense(chainM, chainN, -1, 1, 2),
		"S": matrix.ToCSR(s),
		"Z": matrix.NewCSR(chainM, chainN),
		"r": matrix.RandomDense(1, chainN, -1, 1, 4),
		"c": matrix.RandomDense(chainM, 1, 0.5, 1.5, 5),
		"o": matrix.RandomDense(1, 1, 0.5, 1.5, 12),
		"U": matrix.RandomDense(chainM, chainK, -1, 1, 6),
		"V": matrix.RandomDense(chainN, chainK, -1, 1, 7),
		"W": matrix.RandomDense(chainK, chainN, -1, 1, 8),
		"T": matrix.RandomDense(chainK, chainM, -1, 1, 9),        // t(T) %*% X: the folded dense x CSR kernel
		"X": matrix.RandomSparse(chainK, chainN, 0.2, -1, 1, 10), // its sparse right operand
		"Y": matrix.RandomSparse(chainK, chainM, 0.2, -1, 1, 11), // t(T) %*% Y: a nested one
	}
}

// randomChain grows a random element-wise expression of the given depth
// over the graph's inputs. Exactly one path reaches mm (when non-nil), and
// only through unary and binary operators, so outer fusion may apply.
func randomChain(rng *rand.Rand, g *dag.Graph, in map[string]*dag.Node, mm *dag.Node, depth int) *dag.Node {
	if depth == 0 {
		if mm != nil {
			return mm
		}
		return in[[]string{"A", "B", "S", "S", "Z", "r", "c", "o"}[rng.Intn(8)]]
	}
	unaries := []string{"sq", "abs", "neg", "sigmoid", "relu", "sign", "round", "tanh"}
	ops := []matrix.BinOp{matrix.Add, matrix.Sub, matrix.Mul, matrix.MinOp, matrix.MaxOp, matrix.Gt, matrix.Neq}
	full := func(n *dag.Node) *dag.Node { // a vector alone is not a full-shaped chain
		if n.Rows != chainM || n.Cols != chainN {
			return g.Binary(matrix.Add, in["A"], n)
		}
		return n
	}
	switch rng.Intn(5) {
	case 0:
		return g.Unary(unaries[rng.Intn(len(unaries))], full(randomChain(rng, g, in, mm, depth-1)))
	case 1:
		x := full(randomChain(rng, g, in, mm, depth-1))
		s := g.Scalar([]float64{2, -1, 0.5, 0}[rng.Intn(4)])
		if rng.Intn(2) == 0 {
			return g.Binary(ops[rng.Intn(len(ops))], s, x)
		}
		return g.Binary(ops[rng.Intn(len(ops))], x, s)
	case 2: // a safe division
		den := g.Binary(matrix.Add, g.Unary("abs", full(randomChain(rng, g, in, nil, depth-1))), g.Scalar(1))
		return g.Binary(matrix.Div, full(randomChain(rng, g, in, mm, depth-1)), den)
	}
	a, b := randomChain(rng, g, in, mm, depth-1), randomChain(rng, g, in, nil, depth-1)
	if (a.Rows != chainM || a.Cols != chainN) && (b.Rows != chainM || b.Cols != chainN) {
		a = full(a) // two vectors do not broadcast against each other
	}
	if rng.Intn(2) == 0 {
		a, b = b, a
	}
	return g.Binary(ops[rng.Intn(len(ops))], a, b)
}

// TestCompiledChainMatchesReference runs random fused chains — unary,
// binary, scalar, row-vector, column-vector and 1x1 broadcast, zero blocks on
// either side, a subtraction whose left operand vanished, products the chain
// owns and stores into in every operand position, edge blocks narrower than a
// tile, empty driver rows — through the executor, dense and masked, single
// stage and R > 1 partial + fuse, and compares with the reference to 1e-12.
func TestCompiledChainMatchesReference(t *testing.T) {
	flats := chainInputs()
	rng := rand.New(rand.NewSource(11))
	ran, masked := 0, 0
	for trial := 0; trial < 400; trial++ {
		g := dag.NewGraph()
		in := map[string]*dag.Node{}
		for name, m := range flats {
			r, c := m.Dims()
			in[name] = g.Input(name, r, c, matrix.Density(m))
		}
		var mm *dag.Node
		switch trial % 5 {
		case 0:
			mm = g.MatMul(in["U"], g.Transpose(in["V"]))
		case 1:
			mm = g.MatMul(in["U"], in["W"])
		case 2:
			mm = g.MatMul(g.Transpose(in["T"]), in["X"])
		case 3: // a product that is itself a transposed kernel's sum, times sparse blocks
			mm = g.MatMul(g.MatMul(g.Transpose(in["T"]), in["Y"]), in["S"])
		}
		root := randomChain(rng, g, in, mm, 1+rng.Intn(4))
		if trial%8 == 0 { // a sparse driver over the whole chain
			root = g.Binary(matrix.Mul, in["S"], root)
		}
		if root.IsLeaf() || root.Rows != chainM || root.Cols != chainN {
			continue
		}
		g.SetOutput("O", root)
		members := map[int]*dag.Node{}
		for id := range g.ReachableFromOutputs() {
			if n := g.Nodes()[id]; !n.IsLeaf() {
				members[n.ID] = n
			}
		}
		plan, err := fusion.NewPlan(root, members)
		if err != nil {
			continue // interning shared a sub-expression: not one tree
		}
		want, err := ref.Evaluate(g, flats)
		if err != nil {
			t.Fatal(err)
		}
		bind := Bindings{}
		for _, n := range g.InputNodes() {
			bind[n.ID] = block.FromMat(flats[n.Name], chainBS)
		}
		if plan.MainMM != nil && fusion.FindOuterMask(plan) != nil {
			masked++
		}
		for _, op := range []*FusedOp{
			{Plan: plan, P: 1, Q: 1, R: 1},
			{Plan: plan, P: 2, Q: 3, R: 1},
			{Plan: plan, P: 2, Q: 2, R: 3},
			{Plan: plan, P: 3, Q: 1, R: 2, NoMask: true},
		} {
			got, err := op.Execute(testCluster(chainBS), bind)
			if err != nil {
				t.Fatalf("trial %d (P=%d Q=%d R=%d): %v", trial, op.P, op.Q, op.R, err)
			}
			if !matrix.EqualApprox(got.ToMat(), want["O"], 1e-12) {
				t.Fatalf("trial %d: %s (P=%d Q=%d R=%d NoMask=%v) differs from the reference",
					trial, plan, op.P, op.Q, op.R, op.NoMask)
			}
		}
		ran++
	}
	if ran < 150 || masked < 15 {
		t.Fatalf("only %d chains ran, %d of them masked: the generator lost its coverage", ran, masked)
	}
}

// snapshot deep-copies every block of the bound inputs, keyed by input and
// block coordinate.
func snapshot(bind Bindings) map[string]matrix.Mat {
	out := map[string]matrix.Mat{}
	for id, m := range bind {
		m.ForEach(func(k block.Key, blk matrix.Mat) {
			out[fmt.Sprint(id, k.Row, k.Col)] = blk.Clone()
		})
	}
	return out
}

// TestKernelsNeverWriteSharedBlocks is the aliasing check behind the
// ownership contract: after stages that exercise every in-place kernel
// (accumulating multiplications, the folded transposes, the masked values
// buffer, the R > 1 partial sink, pass-through of an unchanged operand), run
// twice each, every bound input block is byte-identical to before, and so is
// the output of an earlier operator that a later one consumed.
func TestKernelsNeverWriteSharedBlocks(t *testing.T) {
	flats := chainInputs()
	cl := cluster.MustNew(cluster.Config{
		Nodes: 2, TasksPerNode: 2, TaskMemBytes: 1 << 40, NetBandwidth: 1e9, CompBandwidth: 1e12,
		BlockSize: chainBS,
	})
	build := func(f func(g *dag.Graph, in map[string]*dag.Node) *dag.Node) (*fusion.Plan, Bindings) {
		g := dag.NewGraph()
		in := map[string]*dag.Node{}
		bind := Bindings{}
		for name, m := range flats {
			r, c := m.Dims()
			in[name] = g.Input(name, r, c, matrix.Density(m))
			bind[in[name].ID] = block.FromMat(m, chainBS)
		}
		g.SetOutput("O", f(g, in))
		return fullPlan(t, g), bind
	}
	queries := []func(g *dag.Graph, in map[string]*dag.Node) *dag.Node{
		func(g *dag.Graph, in map[string]*dag.Node) *dag.Node { // masked SDDMM, folded t(V)
			return g.Binary(matrix.Mul, in["S"], g.Unary("sigmoid", g.MatMul(in["U"], g.Transpose(in["V"]))))
		},
		func(g *dag.Graph, in map[string]*dag.Node) *dag.Node { // folded t(T) %*% X under a dense chain
			return g.Binary(matrix.Div, g.Binary(matrix.Mul, in["A"], g.MatMul(g.Transpose(in["T"]), in["X"])), in["c"])
		},
		func(g *dag.Graph, in map[string]*dag.Node) *dag.Node { // B + 0: blocks pass through unchanged
			return g.Binary(matrix.Add, in["B"], in["Z"])
		},
		func(g *dag.Graph, in map[string]*dag.Node) *dag.Node { // nested multiplication, retained operands
			return g.MatMul(g.MatMul(in["U"], g.Transpose(in["U"])), in["A"])
		},
	}
	for qi, q := range queries {
		plan, bind := build(q)
		before := snapshot(bind)
		for _, r := range []int{1, 3} {
			for pass := 0; pass < 2; pass++ {
				if _, err := (&FusedOp{Plan: plan, P: 2, Q: 2, R: r}).Execute(cl, bind); err != nil {
					t.Fatalf("query %d R=%d: %v", qi, r, err)
				}
			}
		}
		for key, want := range snapshot(bind) {
			if !bitEqualBlocks(before[key], want) {
				t.Fatalf("query %d: input block %s changed under execution", qi, key)
			}
		}
		if len(before) != len(snapshot(bind)) {
			t.Fatalf("query %d: the set of stored input blocks changed", qi)
		}
	}
	// An operator's output becomes the next one's input: B + 0 publishes B's
	// own blocks, and the consumer must leave them as they were.
	plan, bind := build(queries[2])
	out, err := (&FusedOp{Plan: plan, P: 2, Q: 2, R: 1}).Execute(cl, bind)
	if err != nil {
		t.Fatal(err)
	}
	g := dag.NewGraph()
	o := g.Input("O", chainM, chainN, 1)
	g.SetOutput("P", g.Binary(matrix.Mul, g.Unary("sq", o), g.Scalar(3)))
	next := Bindings{o.ID: out}
	before := snapshot(next)
	if _, err := (&FusedOp{Plan: fullPlan(t, g), P: 2, Q: 2, R: 1}).Execute(cl, next); err != nil {
		t.Fatal(err)
	}
	for key, want := range snapshot(next) {
		if !bitEqualBlocks(before[key], want) {
			t.Fatalf("published output block %s changed under its consumer", key)
		}
	}
}

// bitEqualBlocks compares representation, pattern and bits.
func bitEqualBlocks(a, b matrix.Mat) bool {
	if a == nil || b == nil || a.IsSparse() != b.IsSparse() || a.NNZ() != b.NNZ() {
		return false
	}
	if sa, ok := a.(*matrix.CSR); ok {
		sb := b.(*matrix.CSR)
		for i := range sa.RowPtr {
			if sa.RowPtr[i] != sb.RowPtr[i] {
				return false
			}
		}
		for p := range sa.Col {
			if sa.Col[p] != sb.Col[p] || sa.Val[p] != sb.Val[p] {
				return false
			}
		}
		return true
	}
	da, db := a.(*matrix.Dense), b.(*matrix.Dense)
	for i := range da.Data {
		if da.Data[i] != db.Data[i] {
			return false
		}
	}
	return len(da.Data) == len(db.Data)
}

// The two fused operators of the repo benchmark, over inputs X (sparse,
// users x items), U (k x items), V and W (users x k; W is V again, because
// one plan is a tree and t(V) cannot feed two products) and F (items x k).
type buildFn = func(g *dag.Graph, in map[string]*dag.Node) *dag.Node

// gnmfUpdate is U2 = U * (t(V) %*% X) / ((t(V) %*% V) %*% U).
func gnmfUpdate(g *dag.Graph, in map[string]*dag.Node) *dag.Node {
	num := g.Binary(matrix.Mul, in["U"], g.MatMul(g.Transpose(in["V"]), in["X"]))
	return g.Binary(matrix.Div, num, g.MatMul(g.MatMul(g.Transpose(in["W"]), in["V"]), in["U"]))
}

// nmfKernel is O = X * log(V %*% t(F) + eps).
func nmfKernel(g *dag.Graph, in map[string]*dag.Node) *dag.Node {
	mm := g.MatMul(in["V"], g.Transpose(in["F"]))
	return g.Binary(matrix.Mul, in["X"], g.Unary("log", g.Binary(matrix.Add, mm, g.Scalar(1e-3))))
}

func benchFlats(users, items, k int, density float64) map[string]matrix.Mat {
	return map[string]matrix.Mat{
		"X": matrix.RandomSparse(users, items, density, 1, 5, 1),
		"U": matrix.RandomDense(k, items, 0.1, 0.9, 2),
		"V": matrix.RandomDense(users, k, 0.1, 0.9, 3),
		"W": matrix.RandomDense(users, k, 0.1, 0.9, 3),
		"F": matrix.RandomDense(items, k, 0.1, 0.9, 4),
	}
}

// fusedOp plans build over flats as one fused operator.
func fusedOp(t testing.TB, flats map[string]matrix.Mat, bs int, build buildFn) (*fusion.Plan, Bindings) {
	g := dag.NewGraph()
	in := map[string]*dag.Node{}
	for name, m := range flats {
		r, c := m.Dims()
		in[name] = g.Input(name, r, c, matrix.Density(m))
	}
	g.SetOutput("O", build(g, in))
	return fullPlan(t, g), bindInputs(t, g, bs, flats)
}

// allocated returns the bytes fn allocates, after one warm-up call.
func allocated(t *testing.T, fn func()) int64 {
	t.Helper()
	fn()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return int64(m1.TotalAlloc - m0.TotalAlloc)
}

// TestTaskAllocationBudget holds one GNMF update task and one NMF-kernel
// task, at an eighth of the benchmark's scale, to an allocation ceiling, so
// per-node intermediates cannot creep back unnoticed. Each may allocate its
// output and no more: the ceiling is read after a warm-up call, and a warm
// task takes every block it builds and does not emit — its retained
// transposes, the transposed accumulator's scratch and write-back, the
// nested product and the product its chain only reads — from a task arena,
// which the warm-up's task left idle. The GNMF chain stores into its first
// product, the only block on the heap; the NMF-kernel task's output shares
// the driver's pattern, and its SDDMM reads t(F) as F's own blocks. With one
// block per node the same two tasks allocated 38.2 MB and 17.3 MB; with fresh
// transposes and scratch 0.64 MB and 0.43 MB; with those in an arena 0.58 MB
// and 0.43 MB; they now allocate 0.29 MB and 0.42 MB.
func TestTaskAllocationBudget(t *testing.T) {
	const users, items, k, bs, slack = 1000, 500, 64, 64, 256 << 10 // slack: plan, descriptors, maps, scratch
	flats := benchFlats(users, items, k, 0.08)
	run := func(build buildFn) (allocBytes, outBytes int64) {
		plan, bind := fusedOp(t, flats, bs, build)
		op := &FusedOp{Plan: plan, P: 1, Q: 1, R: 1} // the whole operator as one task
		cl := testCluster(bs)
		allocBytes = allocated(t, func() {
			out, err := op.Execute(cl, bind)
			if err != nil {
				t.Fatal(err)
			}
			outBytes = out.SizeBytes()
		})
		return allocBytes, outBytes
	}

	alloc, out := run(gnmfUpdate)
	t.Logf("GNMF update task: %d bytes allocated, %d-byte output", alloc, out)
	if ceiling := out + slack; alloc > ceiling {
		t.Errorf("GNMF update task allocated %d bytes for a %d-byte output: ceiling %d", alloc, out, ceiling)
	}

	alloc, out = run(nmfKernel)
	if ceiling := out + slack; alloc > ceiling {
		t.Errorf("NMF-kernel task allocated %d bytes for a %d-byte output: ceiling %d", alloc, out, ceiling)
	}
	t.Logf("NMF-kernel task: %d bytes allocated, %d-byte output", alloc, out)
}

// TestHeldChainReadsHeldOperands: a chain whose result the task holds may
// hand an operand out as its result — (U %*% V) * Z + U2 %*% V, Z's block all
// zero, is U2 %*% V's block itself — so each block it reads must lie in the
// held region of the task arena, not in the one the next output block
// reuses.
func TestHeldChainReadsHeldOperands(t *testing.T) {
	const bs = 8
	flats := map[string]matrix.Mat{
		"U": matrix.RandomDense(8, 4, 0.5, 1.5, 1), "U2": matrix.RandomDense(8, 4, 0.5, 1.5, 2),
		"V": matrix.RandomDense(4, 8, 0.5, 1.5, 3), "Z": matrix.NewCSR(8, 8),
	}
	plan, bind := fusedOp(t, flats, bs, func(g *dag.Graph, in map[string]*dag.Node) *dag.Node {
		return g.Binary(matrix.Add, g.Binary(matrix.Mul, g.MatMul(in["U"], in["V"]), in["Z"]), g.MatMul(in["U2"], in["V"]))
	})
	want := matrix.MatMul(flats["U2"], flats["V"])
	err := testCluster(bs).RunStage("held-chain", 1, func(task *cluster.Task) error {
		ev := newEvaluator(newPlanCtx(plan, true), task, source{fetch: bindSource{bind: bind}.fetch}, bs, 0, 1) // unmasked: U %*% V is built
		ev.arena = new(taskArena)
		blk := ev.evalTo(plan.Root, 0, 0, toHeld)
		if n := len(ev.arena.held.taken) + len(ev.arena.block.taken); n != 2 {
			t.Fatalf("the chain took %d blocks from the arena, want its two products: the case is not the one meant", n)
		}
		if d, ok := blk.(*matrix.Dense); !ok || !bitEqualBlocks(d, want) {
			t.Fatalf("the chain gave %v, want U2 %%*%% V's block", blk)
		}
		if ev.arena.escape(blk) == blk {
			t.Fatal("the chain's result is not an arena block: the case is not the one meant")
		}
		if slices.Contains(ev.arena.block.taken, blk.(*matrix.Dense)) {
			t.Error("a held chain's result lies in the block region")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFusedTaskThreadInvariance runs the same two operators at blocks wide
// enough for every pooled kernel to split its rows — the compiled chain's
// store, the masked store, the SDDMM, the transposed and the dense kernels —
// and requires 2 and 4 kernel threads to reproduce the serial bits.
func TestFusedTaskThreadInvariance(t *testing.T) {
	const users, items, k, bs = 512, 384, 64, 128
	flats := benchFlats(users, items, k, 0.05)
	for name, build := range map[string]buildFn{"gnmf-update": gnmfUpdate, "nmf-kernel": nmfKernel} {
		plan, bind := fusedOp(t, flats, bs, build)
		var serial *block.Matrix
		for _, threads := range []int{1, 2, 4} {
			paralleltest.ForceThreads(t, threads, 1)
			cl := cluster.MustNew(cluster.Config{
				Nodes: 1, TasksPerNode: 1, TaskMemBytes: 1 << 40, NetBandwidth: 1e9, CompBandwidth: 1e12,
				BlockSize: bs,
			})
			out, err := (&FusedOp{Plan: plan, P: 2, Q: 1, R: 1}).Execute(cl, bind)
			if err != nil {
				t.Fatal(err)
			}
			if threads == 1 {
				serial = out
				continue
			}
			if cl.KernelPool().Stats().ParallelCalls == 0 {
				t.Fatalf("%s: no kernel split its work at %d threads", name, threads)
			}
			serial.ForEach(func(key block.Key, want matrix.Mat) {
				if !bitEqualBlocks(want, out.Block(key.Row, key.Col)) {
					t.Errorf("%s: block (%d,%d) differs at %d kernel threads", name, key.Row, key.Col, threads)
				}
			})
		}
	}
}

// BenchmarkFusedTask times one fused operator end to end at the repo
// benchmark's block shapes: the GNMF U update (folded t(V) %*% X, nested
// product, dense chain) and the NMF kernel (transpose-free SDDMM, masked
// chain) on 256x256 blocks with k = 64, and the AutoEncoder's first layer
// sigmoid(W %*% X + b) (dense GEMM, then the activation stored strip by strip
// into the product) on 128x128 blocks.
func BenchmarkFusedTask(b *testing.B) {
	const users, items, k = 2048, 1024, 64
	factors := benchFlats(users, items, k, 0.01)
	layer := map[string]matrix.Mat{
		"W": matrix.RandomDense(256, 1024, -0.3, 0.3, 1), "X": matrix.RandomDense(1024, 256, 0, 1, 2),
		"b": matrix.RandomDense(256, 1, -0.1, 0.1, 3),
	}
	aeLayer := func(g *dag.Graph, in map[string]*dag.Node) *dag.Node {
		return g.Unary("sigmoid", g.Binary(matrix.Add, g.MatMul(in["W"], in["X"]), in["b"]))
	}
	for _, arm := range []struct {
		name  string
		flats map[string]matrix.Mat
		bs    int
		build buildFn
	}{
		{"gnmf-update", factors, 256, gnmfUpdate}, {"nmf-kernel", factors, 256, nmfKernel}, {"ae-layer", layer, 128, aeLayer},
	} {
		plan, bind := fusedOp(b, arm.flats, arm.bs, arm.build)
		op := &FusedOp{Plan: plan, P: 2, Q: 1, R: 1}
		cl := testCluster(arm.bs)
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(block.FromMat(arm.flats["X"], arm.bs).SizeBytes())
			for i := 0; i < b.N; i++ {
				if _, err := op.Execute(cl, bind); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestExternalTransposeMemoryCharge pins the peak task memory of an operator
// that consumes t(V) as an earlier operator's output (GNMF's twice-used
// t(V)). Such a block is fetched and retained like any external non-leaf
// block and charged as one — only a member transpose, which transposedChild
// charges, is exempt. Against a dense right operand the figure is the
// per-node evaluator's; against a CSR one the task also holds, and is charged
// for, the copies it transposes back for the transposed kernel.
func TestExternalTransposeMemoryCharge(t *testing.T) {
	const bs = 8
	v := matrix.RandomDense(40, 12, 0.1, 0.9, 1)
	flats := map[string]matrix.Mat{
		"X": matrix.RandomSparse(40, 30, 0.2, 1, 2, 2),
		"D": matrix.RandomDense(40, 30, 1, 2, 4),
	}
	for right, wantPeak := range map[string]int64{"D": 20160, "X": 15952 + v.SizeBytes()} {
		g := dag.NewGraph()
		vn := g.Input("V", 40, 12, 1)
		rn := g.Input(right, 40, 30, matrix.Density(flats[right]))
		un := g.Input("U", 12, 30, 1)
		tv := g.Transpose(vn)
		mm := g.MatMul(tv, rn)
		root := g.Binary(matrix.Mul, un, mm)
		g.SetOutput("O", root)
		plan, err := fusion.NewPlan(root, map[int]*dag.Node{root.ID: root, mm.ID: mm}) // t(V) stays outside
		if err != nil {
			t.Fatal(err)
		}
		bind := Bindings{
			rn.ID: block.FromMat(flats[right], bs),
			un.ID: block.FromMat(matrix.RandomDense(12, 30, 0.1, 0.9, 3), bs),
			tv.ID: block.FromMat(matrix.Transpose(v), bs),
		}
		cl := testCluster(bs)
		if _, err := (&FusedOp{Plan: plan, P: 1, Q: 1, R: 1}).Execute(cl, bind); err != nil {
			t.Fatal(err)
		}
		if got := cl.Stats().PeakTaskMemBytes; got != wantPeak {
			t.Errorf("t(V) %%*%% %s: peak task memory %d, want %d", right, got, wantPeak)
		}
	}
}

// TestSparseProductSumRepresentation pins how a multi-k sum of CSR x CSR
// products is stored: by its own density, like a single product — dense once
// the sum reaches matrix.SparseResultThreshold even if no one product does
// (the per-node evaluator compressed each product and kept the CSR sum).
func TestSparseProductSumRepresentation(t *testing.T) {
	const bs = 8
	a, b := matrix.NewDense(bs, 2*bs), matrix.NewDense(2*bs, bs)
	for r := 0; r < 2; r++ { // k-block 0 fills output rows 0-1, k-block 1 rows 2-3: 12 cells each
		a.Set(r, r, 1)
		a.Set(2+r, bs+r, 1)
		for j := 0; j < 6; j++ {
			b.Set(r, j, float64(1+j))
			b.Set(bs+r, j, float64(7+j))
		}
	}
	flats := map[string]matrix.Mat{"A": matrix.ToCSR(a), "B": matrix.ToCSR(b)}
	g := dag.NewGraph()
	g.SetOutput("O", g.MatMul(g.Input("A", bs, 2*bs, 4.0/128), g.Input("B", 2*bs, bs, 24.0/128)))
	for k := 0; k < 2; k++ {
		if p := matrix.MatMul(block.FromMat(flats["A"], bs).Block(0, k), block.FromMat(flats["B"], bs).Block(k, 0)); !p.IsSparse() {
			t.Fatalf("product %d alone is stored dense: the case is not the one meant", k)
		}
	}
	out, err := (&FusedOp{Plan: fullPlan(t, g), P: 1, Q: 1, R: 1}).Execute(testCluster(bs), bindInputs(t, g, bs, flats))
	if err != nil {
		t.Fatal(err)
	}
	if blk := out.Block(0, 0); !matrix.Equal(blk, matrix.MatMul(a, b)) {
		t.Fatal("the sum is not the product")
	} else if blk.IsSparse() || blk.NNZ() != 24 {
		t.Fatalf("a 24/64-dense sum of two sparse products is stored sparse=%v with %d values", blk.IsSparse(), blk.NNZ())
	}
}

// TestMaskedFoldedTransposeCharges pins what a task is charged for the NMF
// kernel O = X * log(V %*% t(F) + eps) whose masked multiply reads a member
// t(F) as F's own blocks: peak task memory and fetched bytes are the figures
// measured at e8b7d89, where every t(F) block was built — for a member t(F)
// and for one that is an earlier operator's output (which is still
// transposed back per output block), single stage and R > 1. A folded
// transpose moves nothing and is charged no flops, so the two forms are
// charged alike: the member form's pin of e8b7d89 (4320) less each of F's
// 360 values charged to the two tasks that read it. The two forms give the
// same output bit for bit.
func TestMaskedFoldedTransposeCharges(t *testing.T) {
	const bs, users, items, k = 8, 40, 30, 12
	flats := map[string]matrix.Mat{
		"X": matrix.RandomSparse(users, items, 0.08, 1, 5, 1),
		"V": matrix.RandomDense(users, k, 0.1, 0.9, 2),
		"F": matrix.RandomDense(items, k, 0.1, 0.9, 3),
	}
	type charges struct{ flops, peakMem, fetched int64 }
	want := map[string]charges{ // measured at e8b7d89; the member flops less 2·360
		"member/R=1":   {4320 - 720, 6384, 13440},
		"member/R=2":   {4320 - 720, 4592, 13440},
		"external/R=1": {3600, 6384, 13440},
		"external/R=2": {3600, 4592, 13440},
	}
	outputs := map[string]*block.Matrix{}
	for _, form := range []string{"member", "external"} {
		g := dag.NewGraph()
		in := map[string]*dag.Node{}
		for name, m := range flats {
			r, c := m.Dims()
			in[name] = g.Input(name, r, c, matrix.Density(m))
		}
		tf := g.Transpose(in["F"])
		root := g.Binary(matrix.Mul, in["X"], g.Unary("log", g.Binary(matrix.Add, g.MatMul(in["V"], tf), g.Scalar(1e-3))))
		g.SetOutput("O", root)
		plan, bind := fullPlan(t, g), bindInputs(t, g, bs, flats)
		if form == "external" {
			members := map[int]*dag.Node{}
			for _, n := range g.Nodes() {
				if !n.IsLeaf() && n != tf {
					members[n.ID] = n
				}
			}
			var err error
			if plan, err = fusion.NewPlan(root, members); err != nil {
				t.Fatal(err)
			}
			bind[tf.ID] = block.FromMat(matrix.Transpose(flats["F"]), bs)
		}
		if fusion.FindOuterMask(plan) == nil {
			t.Fatalf("%s t(F): the plan has no outer mask, the case is not the one meant", form)
		}
		for _, r := range []int{1, 2} {
			name := fmt.Sprintf("%s/R=%d", form, r)
			cl := cluster.MustNew(cluster.Config{Nodes: 2, TasksPerNode: 2, TaskMemBytes: 1 << 40, NetBandwidth: 1e9, CompBandwidth: 1e12, BlockSize: bs})
			out, err := (&FusedOp{Plan: plan, P: 2, Q: 2, R: r}).Execute(cl, bind)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			st := cl.Stats()
			if got := (charges{st.Flops, st.PeakTaskMemBytes, st.ConsolidationBytes}); got != want[name] {
				t.Errorf("%s: charged %+v, want %+v", name, got, want[name])
			}
			outputs[name] = out
		}
	}
	first := outputs["member/R=1"]
	for name, out := range outputs {
		if out.NumStoredBlocks() != first.NumStoredBlocks() {
			t.Errorf("%s: %d output blocks, want %d", name, out.NumStoredBlocks(), first.NumStoredBlocks())
		}
		first.ForEach(func(key block.Key, blk matrix.Mat) {
			if !bitEqualBlocks(blk, out.Block(key.Row, key.Col)) {
				t.Errorf("%s: output block (%d,%d) differs", name, key.Row, key.Col)
			}
		})
	}
}

// TestDenseChainsUseStrips keeps the fast path the path for the two scripts
// the repo benchmark spends its element-wise time in: planned as the engine
// plans them, every element-wise operator of the GNMF update and of the
// 18-statement AutoEncoder train step compiles — alone and with the region
// below it — to a dense value with a strip form (matrix.Value's row, read by
// reflection: the field is not exported and need not be), so a later edit
// cannot silently fall back to one closure call per cell.
func TestDenseChainsUseStrips(t *testing.T) {
	const bs = 8
	scripts := map[string]struct {
		src    string
		inputs map[string][3]float64 // rows, cols, density
	}{
		"gnmf": {`
U2 = U * (t(V) %*% X) / (t(V) %*% V %*% U)
V2 = V * (X %*% t(U)) / (V %*% (U %*% t(U)))
`, map[string][3]float64{"X": {40, 24, 0.3}, "U": {8, 24, 1}, "V": {40, 8, 1}}},
		"autoencoder": {`
H1 = sigmoid(W1 %*% XT + b1)
H2 = sigmoid(W2 %*% H1 + b2)
H3 = sigmoid(W3 %*% H2 + b3)
Y = sigmoid(W4 %*% H3 + b4)
E = Y - XT
loss = sum(E ^ 2)
D4 = E * sigmoidGrad(Y)
D3 = (t(W4) %*% D4) * sigmoidGrad(H3)
D2 = (t(W3) %*% D3) * sigmoidGrad(H2)
D1 = (t(W2) %*% D2) * sigmoidGrad(H1)
W1n = W1 - lrm * (D1 %*% t(XT))
b1n = b1 - lrm * rowSums(D1)
W2n = W2 - lrm * (D2 %*% t(H1))
b2n = b2 - lrm * rowSums(D2)
W3n = W3 - lrm * (D3 %*% t(H2))
b3n = b3 - lrm * rowSums(D3)
W4n = W4 - lrm * (D4 %*% t(H3))
b4n = b4 - lrm * rowSums(D4)
`, map[string][3]float64{
			"XT": {24, 16, 1}, "lrm": {1, 1, 1},
			"W1": {16, 24, 1}, "b1": {16, 1, 1}, "W2": {8, 16, 1}, "b2": {8, 1, 1},
			"W3": {16, 8, 1}, "b3": {16, 1, 1}, "W4": {24, 16, 1}, "b4": {24, 1, 1},
		}},
	}
	for name, sc := range scripts {
		decls, flats := map[string]lang.InputDecl{}, map[string]matrix.Mat{}
		for in, d := range sc.inputs {
			rows, cols := int(d[0]), int(d[1])
			decls[in] = lang.InputDecl{Rows: rows, Cols: cols, Sparsity: d[2]}
			if flats[in] = matrix.RandomDense(rows, cols, 0.1, 0.9, int64(len(in)+rows)); d[2] < 1 {
				flats[in] = matrix.RandomSparse(rows, cols, d[2], 1, 5, 1)
			}
		}
		g, err := lang.Parse(sc.src, decls)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cfg.Generate(g, cluster.Config{Nodes: 2, TasksPerNode: 2, NetBandwidth: 1e9, CompBandwidth: 1e12, TaskMemBytes: 1 << 40, BlockSize: bs})
		if err != nil {
			t.Fatal(err)
		}
		cl, bind, compiled := testCluster(bs), bindInputs(t, g, bs, flats), 0
		for _, plan := range res.Set.Plans {
			op := &FusedOp{Plan: plan, P: 1, Q: 1, R: 1}
			err := cl.RunStage("compile", 1, func(task *cluster.Task) error {
				gk := 0
				if mm := plan.MainMM; mm != nil {
					gk = (mm.Inputs[0].Cols + bs - 1) / bs
				}
				ev := newEvaluator(newPlanCtx(plan, false), task, source{fetch: bindSource{bind: bind}.fetch}, bs, 0, gk)
				ev.arena = new(taskArena)
				if ev.pc.mask != nil {
					t.Errorf("%s: %s is masked: its chain walks a pattern, the case is not the one meant", name, plan)
				}
				for _, id := range plan.MemberIDs() {
					n := plan.Members[id]
					if n.Op != dag.OpUnary && n.Op != dag.OpBinary {
						continue
					}
					rows, cols := ev.blockDims(n, 0, 0)
					c := &chain{Chain: &matrix.Chain{Rows: rows, Cols: cols}, ev: ev, root: n}
					row := reflect.ValueOf(c.node(n)).FieldByName("row")
					if !row.IsValid() {
						t.Fatal("matrix.Value has no field named row: this test reads the strip form by that name")
					}
					if row.IsNil() {
						t.Errorf("%s: %s in %s compiles to a value without a strip form", name, n.Label(), plan)
					}
					compiled++
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if bind[plan.Root.ID], err = op.Execute(cl, bind); err != nil {
				t.Fatal(err)
			}
		}
		if want := map[string]int{"gnmf": 4, "autoencoder": 34}[name]; compiled != want {
			t.Errorf("%s: %d element-wise operators compiled, want %d", name, compiled, want)
		}
	}
}

// maskedPathCases are outer-fusion paths S * f(U %*% W) whose f puts each
// shape of masked pass where its order shows: a block operand on either side
// of the non-commutative - and /, a scalar on their left, a unary above and
// below a binary, all-zero, vector, 1x1 and CSR operands (the driver's own
// pattern, and another), and operators without a loop of their own.
var maskedPathCases = []struct {
	name string
	path func(g *dag.Graph, in map[string]*dag.Node, mm *dag.Node) *dag.Node
}{
	{"sub-right", func(g *dag.Graph, in map[string]*dag.Node, mm *dag.Node) *dag.Node {
		return g.Binary(matrix.Sub, mm, in["B"])
	}},
	{"sub-left", func(g *dag.Graph, in map[string]*dag.Node, mm *dag.Node) *dag.Node {
		return g.Binary(matrix.Sub, in["B"], mm)
	}},
	{"div-right", func(g *dag.Graph, in map[string]*dag.Node, mm *dag.Node) *dag.Node {
		return g.Binary(matrix.Div, mm, in["A"])
	}},
	{"div-left", func(g *dag.Graph, in map[string]*dag.Node, mm *dag.Node) *dag.Node {
		return g.Binary(matrix.Div, in["A"], g.Binary(matrix.Add, g.Unary("abs", mm), g.Scalar(1)))
	}},
	{"scalar-left-sub", func(g *dag.Graph, in map[string]*dag.Node, mm *dag.Node) *dag.Node {
		return g.Binary(matrix.Sub, g.Scalar(2), mm)
	}},
	{"scalar-left-div", func(g *dag.Graph, in map[string]*dag.Node, mm *dag.Node) *dag.Node {
		return g.Binary(matrix.Div, g.Scalar(2), g.Binary(matrix.Add, g.Unary("abs", mm), g.Scalar(1)))
	}},
	{"scalar-right", func(g *dag.Graph, in map[string]*dag.Node, mm *dag.Node) *dag.Node {
		return g.Binary(matrix.Div, g.Binary(matrix.Sub, g.Binary(matrix.Mul, mm, g.Scalar(3)), g.Scalar(0.25)), g.Scalar(7))
	}},
	{"unary-around-binary", func(g *dag.Graph, in map[string]*dag.Node, mm *dag.Node) *dag.Node {
		return g.Unary("sq", g.Binary(matrix.Sub, g.Unary("abs", mm), in["A"]))
	}},
	{"zero-right", func(g *dag.Graph, in map[string]*dag.Node, mm *dag.Node) *dag.Node {
		return g.Binary(matrix.Sub, mm, in["Z"])
	}},
	{"zero-left", func(g *dag.Graph, in map[string]*dag.Node, mm *dag.Node) *dag.Node {
		return g.Binary(matrix.Sub, in["Z"], mm)
	}},
	{"row-vector", func(g *dag.Graph, in map[string]*dag.Node, mm *dag.Node) *dag.Node {
		return g.Binary(matrix.Sub, in["r"], mm)
	}},
	{"column-vector", func(g *dag.Graph, in map[string]*dag.Node, mm *dag.Node) *dag.Node {
		return g.Binary(matrix.Div, g.Unary("neg", mm), in["c"])
	}},
	{"1x1", func(g *dag.Graph, in map[string]*dag.Node, mm *dag.Node) *dag.Node {
		return g.Binary(matrix.Sub, in["o"], mm)
	}},
	{"driver-pattern", func(g *dag.Graph, in map[string]*dag.Node, mm *dag.Node) *dag.Node {
		return g.Binary(matrix.Sub, in["S"], mm)
	}},
	{"other-pattern", func(g *dag.Graph, in map[string]*dag.Node, mm *dag.Node) *dag.Node {
		return g.Binary(matrix.Sub, mm, in["T"])
	}},
	{"generic-ops", func(g *dag.Graph, in map[string]*dag.Node, mm *dag.Node) *dag.Node {
		return g.Binary(matrix.MinOp, g.Scalar(0.5), g.Binary(matrix.MaxOp, in["B"], g.Unary("relu", mm)))
	}},
}

// maskedPathBits are the outputs of maskedPathCases under the per-non-zero
// closure chain the passes replaced, as FNV-1a over the value bits (measured
// at d40874f; single stage and R = 3 sum the k-blocks in the same order and
// agree). Every operator in the cases is exact arithmetic, so the figures
// hold on every machine.
var maskedPathBits = map[string]uint64{
	"sub-right": 0xdc28e447c4c8d49a, "sub-left": 0xcc3b50b9ce747e9a, "div-right": 0xd5ee85887d1d5890, "div-left": 0xaf8f1b6b1d97367c,
	"scalar-left-sub": 0x86f8dbf83c08d98d, "scalar-left-div": 0x546fa47503956f3f, "scalar-right": 0x48e500fe45799664,
	"unary-around-binary": 0x186155b47464b74d, "zero-right": 0xfb80010a83801a39, "zero-left": 0xaedac2408594c139,
	"row-vector": 0x19ae91537c630098, "column-vector": 0x806e9769859821e0, "1x1": 0x4cd44b349d1d952c,
	"driver-pattern": 0xd4941b1dc1c8db0a, "other-pattern": 0x140d3433d3cdf5a9, "generic-ops": 0x1a81ce35ad628d88,
}

// TestMaskedPassesMatchClosures runs maskedPathCases through the executor on
// 64-wide blocks with empty driver rows and an all-zero driver block — single
// stage (one task, and 2x2 partitions) and R = 3, whose second stage samples
// the pinned partials through the gather pass; at 1, 2 and 4 kernel threads —
// and requires the reference's values and, from every run, the bits of
// maskedPathBits.
func TestMaskedPassesMatchClosures(t *testing.T) {
	const rows, cols, inner, bs = 150, 130, 150, 64
	s := matrix.ToDense(matrix.RandomSparse(rows, cols, 0.06, 0.5, 1.5, 3))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if (i < bs && j >= bs && j < 2*bs) || i == 70 || i == 71 { // block (0,1); two rows
				s.Set(i, j, 0)
			}
		}
	}
	flats := map[string]matrix.Mat{
		"S": matrix.ToCSR(s), "T": matrix.RandomSparse(rows, cols, 0.3, -1, 1, 13), "Z": matrix.NewCSR(rows, cols),
		"A": matrix.RandomDense(rows, cols, 0.5, 1.5, 1), "B": matrix.RandomDense(rows, cols, -1, 1, 2),
		"r": matrix.RandomDense(1, cols, -1, 1, 4), "c": matrix.RandomDense(rows, 1, 0.5, 1.5, 5), "o": matrix.RandomDense(1, 1, 0.5, 1.5, 12),
		"U": matrix.RandomDense(rows, inner, -1, 1, 6), "W": matrix.RandomDense(inner, cols, -1, 1, 8),
	}
	hash := func(m *block.Matrix) uint64 {
		h := fnv.New64a()
		var b [8]byte
		for _, v := range matrix.ToDense(m.ToMat()).Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		return h.Sum64()
	}
	for _, tc := range maskedPathCases {
		g := dag.NewGraph()
		in := map[string]*dag.Node{}
		for name, m := range flats {
			r, c := m.Dims()
			in[name] = g.Input(name, r, c, matrix.Density(m))
		}
		g.SetOutput("O", g.Binary(matrix.Mul, in["S"], tc.path(g, in, g.MatMul(in["U"], in["W"]))))
		plan, bind := fullPlan(t, g), bindInputs(t, g, bs, flats)
		if fusion.FindOuterMask(plan) == nil {
			t.Fatalf("%s: the plan has no outer mask, the case is not the one meant", tc.name)
		}
		want, err := ref.Evaluate(g, flats)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct{ p, q, r, threads int }{
			{1, 1, 1, 1}, {2, 2, 1, 1}, {1, 1, 1, 2}, {1, 1, 1, 4},
			{2, 2, 3, 1}, {1, 1, 3, 2}, {1, 1, 3, 4},
		} {
			paralleltest.ForceThreads(t, run.threads, 4)
			cl := cluster.MustNew(cluster.Config{
				Nodes: 2, TasksPerNode: 2, TaskMemBytes: 1 << 40, NetBandwidth: 1e9, CompBandwidth: 1e12,
				BlockSize: bs,
			})
			out, err := (&FusedOp{Plan: plan, P: run.p, Q: run.q, R: run.r}).Execute(cl, bind)
			if err != nil {
				t.Fatalf("%s %+v: %v", tc.name, run, err)
			}
			if !matrix.EqualApprox(out.ToMat(), want["O"], 1e-11) {
				t.Errorf("%s %+v: differs from the reference", tc.name, run)
			}
			if run.threads > 1 && cl.KernelPool().Stats().ParallelCalls == 0 {
				t.Errorf("%s %+v: no kernel split its work", tc.name, run)
			}
			if got := hash(out); got != maskedPathBits[tc.name] {
				t.Errorf("%s %+v: output bits %#x, under the closure chain %#x", tc.name, run, got, maskedPathBits[tc.name])
			}
		}
	}
}

// TestDenseFoldedTransposeCharges pins what a task is charged for a dense
// product under a member t(V), which the dense kernel reads as V's own blocks
// through swapped strides: peak task memory and fetched bytes are the figures
// measured at c9b6dc4, where every t(V) block was built, single stage and
// R > 1. The folded t(V) is charged no flops: c9b6dc4's 30120 less each of
// V's 480 values charged to the Q = 2 tasks that read it. The output is, bit
// for bit, the one an operator gives that is handed t(V) built, as an earlier
// operator's output.
func TestDenseFoldedTransposeCharges(t *testing.T) {
	const bs, users, items, k = 8, 40, 30, 12
	flats := map[string]matrix.Mat{
		"V": matrix.RandomDense(users, k, 0.1, 0.9, 1),
		"D": matrix.RandomDense(users, items, 1, 2, 2),
		"U": matrix.RandomDense(k, items, 0.1, 0.9, 4),
	}
	type charges struct{ flops, peakMem, fetched int64 }
	for r, want := range map[int]charges{1: {30120 - 960, 11264, 26880}, 2: {30120 - 960, 6144, 26880}} { // measured at c9b6dc4, less 2·480
		name := fmt.Sprintf("R=%d", r)
		var outs [2]*block.Matrix
		for external := range outs {
			g := dag.NewGraph()
			in := map[string]*dag.Node{}
			for name, m := range flats {
				r, c := m.Dims()
				in[name] = g.Input(name, r, c, 1)
			}
			tv := g.Transpose(in["V"])
			root := g.Binary(matrix.Mul, in["U"], g.MatMul(tv, in["D"]))
			g.SetOutput("O", root)
			plan, bind := fullPlan(t, g), bindInputs(t, g, bs, flats)
			if external == 1 {
				members := map[int]*dag.Node{}
				for _, n := range g.Nodes() {
					if !n.IsLeaf() && n != tv {
						members[n.ID] = n
					}
				}
				var err error
				if plan, err = fusion.NewPlan(root, members); err != nil {
					t.Fatal(err)
				}
				bind[tv.ID] = block.FromMat(matrix.Transpose(flats["V"]), bs)
			}
			cl := testCluster(bs)
			out, err := (&FusedOp{Plan: plan, P: 2, Q: 2, R: r}).Execute(cl, bind)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			outs[external] = out
			st := cl.Stats()
			if got := (charges{st.Flops, st.PeakTaskMemBytes, st.ConsolidationBytes}); external == 0 && got != want {
				t.Errorf("%s: charged %+v, want %+v", name, got, want)
			}
		}
		outs[0].ForEach(func(key block.Key, blk matrix.Mat) {
			if !bitEqualBlocks(blk, outs[1].Block(key.Row, key.Col)) {
				t.Errorf("%s: output block (%d,%d) differs from the product with t(V) built", name, key.Row, key.Col)
			}
		})
	}
}
