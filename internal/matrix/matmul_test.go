package matrix

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

// refMatMul is the O(n^3) reference used to validate every kernel.
func refMatMul(a, b Mat) *Dense {
	ar, ak := a.Dims()
	_, bc := b.Dims()
	out := NewDense(ar, bc)
	for i := 0; i < ar; i++ {
		for j := 0; j < bc; j++ {
			var s float64
			for k := 0; k < ak; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestMatMulAllRepresentations(t *testing.T) {
	d1 := randDense(t, 7, 5, 1)
	d2 := randDense(t, 5, 9, 2)
	s1 := randSparse(t, 7, 5, 0.4, 3)
	s2 := randSparse(t, 5, 9, 0.4, 4)
	combos := []struct {
		name string
		a, b Mat
	}{
		{"dd", d1, d2}, {"sd", s1, d2}, {"ds", d1, s2}, {"ss", s1, s2},
	}
	for _, c := range combos {
		got := MatMul(c.a, c.b)
		want := refMatMul(c.a, c.b)
		if !EqualApprox(got, want, 1e-12) {
			t.Errorf("combo %s mismatch", c.name)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	d := randDense(t, 6, 6, 5)
	eye := NewDense(6, 6)
	for i := 0; i < 6; i++ {
		eye.Set(i, i, 1)
	}
	if !EqualApprox(MatMul(d, eye), d, 1e-15) {
		t.Fatal("A x I != A")
	}
	if !EqualApprox(MatMul(eye, d), d, 1e-15) {
		t.Fatal("I x A != A")
	}
}

func TestMatMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(NewDense(3, 4), NewDense(5, 3))
}

func TestMatMulSparseSparseCompresses(t *testing.T) {
	a := randSparse(t, 200, 200, 0.005, 6)
	b := randSparse(t, 200, 200, 0.005, 7)
	got := MatMul(a, b)
	if !got.IsSparse() {
		t.Fatalf("very sparse product stored dense (density %v)", Density(got))
	}
	if !EqualApprox(got, refMatMul(a, b), 1e-12) {
		t.Fatal("sparse-sparse product incorrect")
	}
}

func TestMatMulFlops(t *testing.T) {
	d := NewDense(10, 20)
	e := NewDense(20, 30)
	if got := MatMulFlops(d, e); got != 2*10*20*30 {
		t.Fatalf("dense flops = %d", got)
	}
	s := randSparse(t, 10, 20, 0.1, 8)
	if got := MatMulFlops(s, e); got != 2*int64(s.NNZ())*30 {
		t.Fatalf("sparse flops = %d", got)
	}
	// Dense x CSR: the kernel runs one row update per output row and
	// non-zero of the right operand.
	r := randSparse(t, 20, 30, 0.1, 9)
	if got := MatMulFlops(d, r); got != 2*10*int64(r.NNZ()) {
		t.Fatalf("dense x sparse flops = %d, want 2*10*%d", got, r.NNZ())
	}
	if got := MatMulFlops(s, r); got != 2*int64(s.NNZ())*30 {
		t.Fatalf("sparse x sparse flops = %d", got)
	}
}

func TestMaskedMatMulEqualsMaskedFull(t *testing.T) {
	u := randDense(t, 12, 4, 10)
	v := randDense(t, 4, 15, 11)
	mask := randSparse(t, 12, 15, 0.2, 12)
	got := MaskedMatMul(mask, u, v)
	full := MatMul(u, v)
	// Expected: full product sampled at mask pattern.
	for i := 0; i < 12; i++ {
		for j := 0; j < 15; j++ {
			want := 0.0
			if mask.At(i, j) != 0 {
				want = full.At(i, j)
			}
			if diff := got.At(i, j) - want; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("masked mismatch at (%d,%d): got %v want %v", i, j, got.At(i, j), want)
			}
		}
	}
	if got.NNZ() != mask.NNZ() {
		t.Fatalf("masked result pattern %d != mask %d", got.NNZ(), mask.NNZ())
	}
}

func TestMaskedMatMulSparseOperands(t *testing.T) {
	u := randSparse(t, 10, 6, 0.5, 13)
	v := randSparse(t, 6, 10, 0.5, 14)
	mask := randSparse(t, 10, 10, 0.3, 15)
	got := MaskedMatMul(mask, u, v)
	full := refMatMul(u, v)
	for i := 0; i < 10; i++ {
		cols, vals := got.RowNNZ(i)
		for p, j := range cols {
			if diff := vals[p] - full.At(i, j); diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("sparse masked mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMaskedMatMulEmptyMask(t *testing.T) {
	u := randDense(t, 5, 3, 16)
	v := randDense(t, 3, 5, 17)
	got := MaskedMatMul(NewCSR(5, 5), u, v)
	if got.NNZ() != 0 {
		t.Fatal("empty mask produced entries")
	}
}

func TestMaskedMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MaskedMatMul(NewCSR(5, 5), NewDense(5, 3), NewDense(4, 5))
}

func TestMaskedMatMulFlops(t *testing.T) {
	mask := randSparse(t, 10, 10, 0.5, 18)
	if got := MaskedMatMulFlops(mask, 7); got != 2*int64(mask.NNZ())*7 {
		t.Fatalf("flops = %d", got)
	}
}

// Property: (A x B)^T == B^T x A^T across representations.
func TestQuickMatMulTransposeIdentity(t *testing.T) {
	f := func(seed int64) bool {
		a := RandomSparse(8, 6, 0.4, -1, 1, seed)
		b := RandomDense(6, 7, -1, 1, seed+1)
		lhs := Transpose(MatMul(a, b))
		rhs := MatMul(Transpose(b), Transpose(a))
		return EqualApprox(lhs, rhs, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over addition: A(B+C) == AB + AC.
func TestQuickMatMulDistributivity(t *testing.T) {
	f := func(seed int64) bool {
		a := RandomDense(6, 5, -1, 1, seed)
		b := RandomDense(5, 6, -1, 1, seed+1)
		c := RandomSparse(5, 6, 0.5, -1, 1, seed+2)
		lhs := MatMul(a, Binary(Add, b, c))
		rhs := Binary(Add, MatMul(a, b), MatMul(a, c))
		return EqualApprox(lhs, rhs, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: block-partitioned multiplication sums to the full product
// (the voxel decomposition of Eq. 1 in the paper).
func TestQuickMatMulBlockDecomposition(t *testing.T) {
	f := func(seed int64) bool {
		const n, k, split = 6, 8, 3
		a := RandomDense(n, k, -1, 1, seed)
		b := RandomDense(k, n, -1, 1, seed+1)
		// C = sum over k-slabs of A[:, slab] x B[slab, :].
		acc := NewDense(n, n)
		for s := 0; s < k; s += split {
			hi := s + split
			if hi > k {
				hi = k
			}
			as := NewDense(n, hi-s)
			bs := NewDense(hi-s, n)
			for i := 0; i < n; i++ {
				for kk := s; kk < hi; kk++ {
					as.Set(i, kk-s, a.At(i, kk))
				}
			}
			for kk := s; kk < hi; kk++ {
				for j := 0; j < n; j++ {
					bs.Set(kk-s, j, b.At(kk, j))
				}
			}
			acc = Binary(Add, acc, MatMul(as, bs)).(*Dense)
		}
		return EqualApprox(acc, MatMul(a, b), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestIORoundTripDense(t *testing.T) {
	d := randDense(t, 17, 9, 50)
	var buf bytes.Buffer
	if err := WriteTo(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(d, got) {
		t.Fatal("dense IO round trip mismatch")
	}
}

func TestIORoundTripCSR(t *testing.T) {
	s := randSparse(t, 31, 23, 0.15, 51)
	var buf bytes.Buffer
	if err := WriteTo(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsSparse() {
		t.Fatal("CSR did not survive round trip")
	}
	if !Equal(s, got) {
		t.Fatal("CSR IO round trip mismatch")
	}
}

func TestIOBadMagic(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("expected error for bad magic")
	}
}

// The block shapes of the repo benchmark: 256x256 blocks of X at density
// 0.01 (gnmf) and 0.005 (nmfk) against 64-wide factor blocks.
const benchBlock, benchK = 256, 64

// benchKernel times fn, which does flops floating-point operations over
// bytes of operand and result data per call.
func benchKernel(b *testing.B, name string, nbytes, flops int64, fn func()) {
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(nbytes)
		for i := 0; i < b.N; i++ {
			fn()
		}
		b.ReportMetric(float64(flops)*float64(b.N)/1e9/b.Elapsed().Seconds(), "GFLOP/s")
	})
}

func BenchmarkMatMulSparseDense(b *testing.B) {
	x := RandomSparse(1024, 1024, 0.01, -1, 1, 1)
	y := RandomDense(1024, 128, -1, 1, 2)
	benchKernel(b, "csr-dense/1024", x.SizeBytes()+y.SizeBytes(), MatMulFlops(x, y), func() { sinkMat = MatMul(x, y) })

	xb := RandomSparse(benchBlock, benchBlock, 0.01, 1, 5, 3)
	u := RandomDense(benchBlock, benchK, 0.1, 0.9, 4) // t(U) block: X %*% t(U)
	vt := RandomDense(benchK, benchBlock, 0.1, 0.9, 5)
	v := RandomDense(benchBlock, benchK, 0.1, 0.9, 6) // V block: t(V) %*% X, untransposed
	nbytes := xb.SizeBytes() + 2*u.SizeBytes()
	acc := NewDense(benchBlock, benchK)
	accT := NewDense(benchBlock, benchK)
	dsFlops := 2 * int64(benchK) * int64(xb.NNZ()) // the multiply-adds a dense x CSR product needs
	benchKernel(b, "csr-dense/block", nbytes, MatMulFlops(xb, u), func() { sinkMat = MatMul(xb, u) })
	benchKernel(b, "csr-dense-acc/block", nbytes, MatMulFlops(xb, u), func() { MatMulAccWith(nil, acc, xb, u) })
	benchKernel(b, "dense-csr/block", nbytes, dsFlops, func() { sinkMat = MatMul(vt, xb) })
	benchKernel(b, "dense-csr-trans-acc/block", nbytes, dsFlops, func() { MatMulTransAccWith(nil, accT, v, xb) })
}

func BenchmarkMaskedMatMul(b *testing.B) {
	mask := RandomSparse(1024, 1024, 0.01, -1, 1, 1)
	u := RandomDense(1024, 64, -1, 1, 2)
	v := RandomDense(64, 1024, -1, 1, 3)
	benchKernel(b, "1024", mask.SizeBytes()+u.SizeBytes()+v.SizeBytes(), MaskedMatMulFlops(mask, 64),
		func() { sinkMat = MaskedMatMul(mask, u, v) })

	for _, d := range []float64{0.005, 0.01} {
		m := RandomSparse(benchBlock, benchBlock, d, 1, 5, 4)
		ub := RandomDense(benchBlock, benchK, 0.1, 0.9, 5)
		vb := RandomDense(benchBlock, benchK, 0.1, 0.9, 6) // V block: U %*% t(V), untransposed
		vtb := Transpose(vb)
		vals := make([]float64, m.NNZ())
		nbytes, flops := m.SizeBytes()+2*ub.SizeBytes(), MaskedMatMulFlops(m, benchK)
		benchKernel(b, fmt.Sprintf("block/d=%g", d), nbytes, flops, func() { sinkMat = MaskedMatMul(m, ub, vtb) })
		benchKernel(b, fmt.Sprintf("transpose-free-acc/block/d=%g", d), nbytes, flops,
			func() { MaskedMatMulAccWith(nil, m, vals, ub, vb) })
	}
}

// BenchmarkSDDMMTaskOrder times the masked SDDMM over the task grid of the
// repo benchmark's nmfk_sim, in ns per stored position: 78 x 39 mask blocks
// of 256 x 256 at density 0.005 against 256 x 64 factor blocks — one U block
// per block row, one V block per block column, read as V's own row-major
// blocks (the folded t(V)) — with the kernels at the machine's level.
// per-block is a task's visit without super-tiles: block row by block row,
// one kernel call per block. super-tile groups SuperTileCols(256, 64) column
// blocks and visits them as the executor does: group by group, block row by
// block row, one call per group and block row.
func BenchmarkSDDMMTaskOrder(b *testing.B) {
	const gi, gj = 78, 39
	us, vs := make([]*Dense, gi), make([]*Dense, gj)
	for i := range us {
		us[i] = RandomDense(benchBlock, benchK, 0.1, 0.9, int64(i))
	}
	for j := range vs {
		vs[j] = RandomDense(benchBlock, benchK, 0.1, 0.9, int64(gi+j))
	}
	masks, accs := make([]*CSR, gi*gj), make([][]float64, gi*gj)
	nnz := 0
	for l := range masks {
		masks[l] = RandomSparse(benchBlock, benchBlock, 0.005, 1, 5, int64(l))
		accs[l] = make([]float64, masks[l].NNZ())
		nnz += masks[l].NNZ()
	}
	arm := func(name string, fn func()) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nnz), "ns/nnz")
		})
	}
	arm("per-block", func() {
		for bi := 0; bi < gi; bi++ {
			for bj := 0; bj < gj; bj++ {
				l := bi*gj + bj
				MaskedMatMulAccWith(nil, masks[l], accs[l], us[bi], vs[bj])
			}
		}
	})
	g := SuperTileCols(benchBlock, benchK)
	terms := make([]MaskedTerm, 0, g)
	arm(fmt.Sprintf("super-tile/%d", g), func() {
		for lo := 0; lo < gj; lo += g {
			for bi := 0; bi < gi; bi++ {
				terms = terms[:0]
				for bj := lo; bj < min(lo+g, gj); bj++ {
					l := bi*gj + bj
					terms = append(terms, MaskedTerm{Mask: masks[l], Acc: accs[l], Bt: vs[bj]})
				}
				MaskedMatMulGroupAccWith(nil, us[bi], terms)
			}
		}
	})
}
