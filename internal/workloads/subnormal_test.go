package workloads

import (
	"math"
	"testing"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/matrix"
)

// TestGNMFLongRunStaysNormal runs 600 multiplicative updates from one start.
// The factors' smallest entries decay by about a decade per update and reach
// the subnormal range near update 250; one subnormal operand makes a
// multiply ~100x slower, which is how op time used to climb over such a run
// (1.6x by update 600 at an eighth of the benchmark's scale, 4x at full
// scale). The compiled chain flushes subnormals at its single store, so no
// update may leave one in U or V — checked against an unflushed update of the
// same state, which must agree to 1e-12 everywhere and must itself produce
// subnormals (else this test exercises nothing). Deterministic: no timing
// assertion. The decay is per update, not per size, so the run uses 1/32 of
// the benchmark's dimensions at its non-zeros per row and rank: 1.4 s where
// an eighth takes 7.
func TestGNMFLongRunStaysNormal(t *testing.T) {
	const users, items, k, bs = 250, 125, 64, 64
	cl := cluster.MustNew(cluster.Config{
		Nodes: 2, TasksPerNode: 1, TaskMemBytes: 1 << 40,
		NetBandwidth: 1e9, CompBandwidth: 1e12, BlockSize: bs,
	})
	x := block.RandomSparse(users, items, bs, 0.32, 1, 5, 1001)
	u := block.RandomDense(k, items, bs, 0.1, 0.9, 1002)
	v := block.RandomDense(users, k, bs, 0.1, 0.9, 1003)
	pp, err := core.FuseME{}.Compile(GNMF(users, items, k, x.Density()), cl.Config())
	if err != nil {
		t.Fatal(err)
	}
	xm := x.ToMat()
	subnormal := func(v float64) bool { return v != 0 && math.Abs(v) < 2.2250738585072014e-308 }
	// update is one unflushed multiplicative update f * num / den.
	update := func(f, num, den matrix.Mat) *matrix.Dense {
		out := matrix.ToDense(f).Clone().(*matrix.Dense)
		r, c := out.Dims()
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				out.Set(i, j, out.At(i, j)*num.At(i, j)/den.At(i, j))
			}
		}
		return out
	}
	refSubnormals := 0
	for it := 1; it <= 600; it++ {
		out, err := core.Execute(pp, cl, map[string]*block.Matrix{"X": x, "U": u, "V": v})
		if err != nil {
			t.Fatalf("update %d: %v", it, err)
		}
		for name, m := range map[string]*block.Matrix{"U2": out["U2"], "V2": out["V2"]} {
			m.ForEach(func(_ block.Key, blk matrix.Mat) {
				for _, val := range matrix.ToDense(blk).Data {
					if subnormal(val) {
						t.Fatalf("update %d left the subnormal %g in %s", it, val, name)
					}
				}
			})
		}
		if it%50 == 0 || it > 597 {
			um, vm := u.ToMat(), v.ToMat()
			tv := matrix.Transpose(vm)
			wantU := update(um, matrix.MatMul(tv, xm), matrix.MatMul(matrix.MatMul(tv, vm), um))
			tu := matrix.Transpose(um)
			wantV := update(vm, matrix.MatMul(xm, tu), matrix.MatMul(vm, matrix.MatMul(um, tu)))
			for _, w := range append(wantU.Data, wantV.Data...) {
				if subnormal(w) {
					refSubnormals++
				}
			}
			if !matrix.EqualApprox(out["U2"].ToMat(), wantU, 1e-12) || !matrix.EqualApprox(out["V2"].ToMat(), wantV, 1e-12) {
				t.Fatalf("update %d differs from the unflushed update by more than 1e-12", it)
			}
		}
		u, v = out["U2"], out["V2"]
	}
	t.Logf("the unflushed updates sampled held %d subnormals", refSubnormals)
	if refSubnormals == 0 {
		t.Fatal("the unflushed reference never produced a subnormal: the run no longer reaches the regime under test")
	}
}
