package matrix

import (
	"fmt"
	"testing"

	"fuseme/internal/parallel"
)

// MatMulNaive is the pre-blocking reference kernel: a plain i-k-j triple loop
// over dense operands, kept to check and time the blocked kernel against.
func MatMulNaive(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: matmul inner dimension mismatch %dx%d x %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// TestBlockedMatMulMatchesNaive checks the blocked kernel against the naive
// triple loop across awkward shapes (tile edges, sub-tile, non-square).
func TestBlockedMatMulMatchesNaive(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 2}, {4, 4, 4}, {63, 64, 65},
		{64, 64, 64}, {65, 67, 66}, {128, 32, 70}, {100, 130, 90},
	}
	for _, sh := range shapes {
		a := RandomDense(sh.m, sh.k, -1, 1, int64(sh.m*1000+sh.k))
		b := RandomDense(sh.k, sh.n, -1, 1, int64(sh.k*1000+sh.n))
		got := MatMul(a, b)
		want := MatMulNaive(a, b)
		if !EqualApprox(got, want, 1e-12) {
			t.Errorf("%dx%dx%d: blocked kernel diverges from naive", sh.m, sh.k, sh.n)
		}
	}
}

// TestMatMulThreadInvariance checks every kernel produces bit-identical
// output at thread counts 1..4: same bits, not just approximately equal.
func TestMatMulThreadInvariance(t *testing.T) {
	da := RandomDense(150, 97, -1, 1, 21)
	db := RandomDense(97, 133, -1, 1, 22)
	sa := RandomSparse(150, 97, 0.1, -1, 1, 23)
	sb := RandomSparse(97, 133, 0.1, -1, 1, 24)
	mask := RandomSparse(150, 133, 0.15, -1, 1, 25)
	dc := RandomDense(150, 133, -1, 1, 26)
	row := RandomDense(1, 133, -1, 1, 27)
	// Large enough for TransposeWith to split where its 8x8 kernel runs, which
	// splits only blocks of 2*transposeSplitCells cells or more.
	big := RandomDense(400, 400, -1, 1, 28)
	f, _ := UnaryFunc("sigmoid")
	// The element-wise arms run one compiled chain over a 150x133 block, wide
	// enough for Materialise and MaskedChain.Run to split rows across the pool.
	chain := func(build func(c *Chain, p *parallel.Pool) Value) func(p *parallel.Pool) Mat {
		return func(p *parallel.Pool) Mat {
			c := &Chain{Rows: 150, Cols: 133}
			return c.Materialise(p, build(c, p))
		}
	}

	kernels := []struct {
		name string
		run  func(p *parallel.Pool) Mat
	}{
		{"dd", func(p *parallel.Pool) Mat { return MatMulWith(p, da, db) }},
		{"sd", func(p *parallel.Pool) Mat { return MatMulWith(p, sa, db) }},
		{"ds", func(p *parallel.Pool) Mat { return MatMulWith(p, da, sb) }},
		{"ss", func(p *parallel.Pool) Mat { return MatMulWith(p, sa, sb) }},
		{"masked", func(p *parallel.Pool) Mat { return MaskedMatMulWith(p, mask, da, db) }},
		{"transpose", func(p *parallel.Pool) Mat { return TransposeWith(p, big) }},
		{"binary", chain(func(c *Chain, _ *parallel.Pool) Value { return c.Binary(Add, c.Leaf(dc), c.Leaf(dc)) })},
		{"scalar", chain(func(c *Chain, _ *parallel.Pool) Value { return c.Scalar(Mul, c.Leaf(dc), 1.5, false) })},
		{"apply", chain(func(c *Chain, _ *parallel.Pool) Value { return c.Unary(f, 10, c.Leaf(dc)) })},
		{"broadcast", chain(func(c *Chain, p *parallel.Pool) Value { // stored in place, into the owned product
			return c.Binary(Add, c.Owned(MatMulWith(p, da, db)), c.Leaf(row))
		})},
		{"fused", chain(func(c *Chain, _ *parallel.Pool) Value {
			return c.Binary(Sub, c.Binary(Mul, c.Leaf(dc), c.Leaf(mask)), c.Unary(f, 10, c.Binary(Add, c.Leaf(dc), c.Leaf(row))))
		})},
		{"masked-passes", func(p *parallel.Pool) Mat {
			vals := MaskedMatMulWith(p, mask, da, db).Val
			var passes MaskedChain
			passes.Block(Sub, dc, true)
			passes.Unary(f)
			passes.Scalar(Div, 3, true)
			passes.Block(Add, row, false)
			passes.Run(p, mask, vals)
			return mask.WithValues(vals)
		}},
		{"trans-ds", func(p *parallel.Pool) Mat {
			accT := NewDense(133, 150)
			MatMulTransAccWith(p, accT, Transpose(da).(*Dense), sb)
			return accT
		}},
	}
	for _, kn := range kernels {
		ref := kn.run(nil)
		for threads := 2; threads <= 4; threads++ {
			p := parallel.New(threads, 2)
			got := kn.run(p)
			if !bitEqual(ref, got) {
				t.Errorf("kernel %s: output differs at %d threads", kn.name, threads)
			}
			if p.Stats().ParallelCalls == 0 {
				t.Errorf("kernel %s never split its work at %d threads: the arm tests nothing", kn.name, threads)
			}
		}
	}
}

// bitEqual compares two matrices for exact bit equality (same representation,
// same stored values — no tolerance).
func bitEqual(a, b Mat) bool {
	switch x := a.(type) {
	case *Dense:
		y, ok := b.(*Dense)
		if !ok || x.Rows != y.Rows || x.Cols != y.Cols {
			return false
		}
		for i := range x.Data {
			if x.Data[i] != y.Data[i] {
				return false
			}
		}
		return true
	case *CSR:
		y, ok := b.(*CSR)
		if !ok || x.Rows != y.Rows || x.Cols != y.Cols || len(x.Val) != len(y.Val) {
			return false
		}
		for i := range x.RowPtr {
			if x.RowPtr[i] != y.RowPtr[i] {
				return false
			}
		}
		for i := range x.Val {
			if x.Col[i] != y.Col[i] || x.Val[i] != y.Val[i] {
				return false
			}
		}
		return true
	}
	return false
}

var sinkDense *Dense

// BenchmarkBlockMatMul compares the naive triple loop, the blocked kernel
// and the blocked kernel with kernel threads on the 512x512 blocks named in
// the acceptance criteria. Thread variants only help on multi-core machines;
// on a single core they degrade to the serial path.
func BenchmarkBlockMatMul(b *testing.B) {
	a := RandomDense(512, 512, -1, 1, 1)
	c := RandomDense(512, 512, -1, 1, 2)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkDense = MatMulNaive(a, c)
		}
	})
	b.Run("blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkDense = MatMul(a, c).(*Dense)
		}
	})
	for _, threads := range []int{2, 4} {
		p := parallel.New(threads, 1)
		b.Run("blocked-t"+string(rune('0'+threads)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkDense = MatMulWith(p, a, c).(*Dense)
			}
		})
	}
}

// TestAccumulateKernelsBitwise checks acc += a x b against the per-node form
// it replaced — a separately computed product added with Binary(Add) — bit
// for bit, for all four representation pairs, over shapes with one and with
// several k-tiles, at 1, 2 and 4 kernel threads.
func TestAccumulateKernelsBitwise(t *testing.T) {
	for _, sh := range []struct{ m, k, n int }{{150, 97, 133}, {70, 40, 65}, {5, 300, 3}, {64, 64, 64}} {
		da := RandomDense(sh.m, sh.k, -1, 1, 31)
		db := RandomDense(sh.k, sh.n, -1, 1, 32)
		sa := RandomSparse(sh.m, sh.k, 0.1, -1, 1, 33)
		sb := RandomSparse(sh.k, sh.n, 0.1, -1, 1, 34)
		acc := RandomDense(sh.m, sh.n, -1, 1, 35)
		for name, ab := range map[string][2]Mat{"dd": {da, db}, "sd": {sa, db}, "ds": {da, sb}, "ss": {sa, sb}} {
			want := Binary(Add, acc, MatMul(ab[0], ab[1]))
			for _, threads := range []int{1, 2, 4} {
				got := acc.Clone().(*Dense)
				MatMulAccWith(parallel.New(threads, 1), got, ab[0], ab[1])
				if !bitEqual(got, want) {
					t.Errorf("%s %dx%dx%d at %d threads: acc += a x b differs from acc + (a x b)", name, sh.m, sh.k, sh.n, threads)
				}
			}
		}
	}
}

// TestMaskedAccumulateBitwise does the same for the SDDMM: accumulating two
// k-slices in place equals adding two separately computed masked products,
// and the transposed right operand is read in place.
func TestMaskedAccumulateBitwise(t *testing.T) {
	md := ToDense(RandomSparse(90, 70, 0.1, 1, 2, 41))
	clear(md.Row(7)) // an empty driver row
	mask := ToCSR(md)
	a1, a2 := RandomDense(90, 37, -1, 1, 42), RandomDense(90, 64, -1, 1, 43)
	b1, b2 := RandomDense(70, 37, -1, 1, 44), RandomDense(70, 64, -1, 1, 45)
	p1 := MaskedMatMul(mask, a1, Transpose(b1))
	p2 := MaskedMatMul(mask, a2, Transpose(b2))
	for _, threads := range []int{1, 2, 4} {
		p := parallel.New(threads, 1)
		got := make([]float64, mask.NNZ())
		MaskedMatMulAccWith(p, mask, got, a1, b1)
		MaskedMatMulAccWith(p, mask, got, a2, b2)
		for q := range got {
			if got[q] != p1.Val[q]+p2.Val[q] {
				t.Fatalf("%d threads: position %d accumulated %v, products sum to %v", threads, q, got[q], p1.Val[q]+p2.Val[q])
			}
		}
	}
	full := MatMul(a1, Transpose(b1))
	for i := 0; i < mask.Rows; i++ {
		for q := mask.RowPtr[i]; q < mask.RowPtr[i+1]; q++ {
			if d := p1.Val[q] - full.At(i, mask.Col[q]); d > 1e-12 || d < -1e-12 {
				t.Fatalf("masked product at (%d,%d) is off the full product by %g", i, mask.Col[q], d)
			}
		}
	}
}

// TestMatMulTransAcc checks the transposed dense x CSR kernel against the
// product it stands for: t(accT) += t(a) x b.
func TestMatMulTransAcc(t *testing.T) {
	a := RandomDense(97, 33, -1, 1, 51) // K x m
	b := RandomSparse(97, 120, 0.05, -1, 1, 52)
	accT := RandomDense(120, 33, -1, 1, 53)
	want := Binary(Add, Transpose(accT), MatMul(Transpose(a), b))
	MatMulTransAccWith(nil, accT, a, b)
	if !EqualApprox(Transpose(accT), want, 1e-12) {
		t.Fatal("accT += t(b) x a is not the transpose of acc += t(a) x b")
	}
}

// TestSerialKernelsIntoGivenBlocksAllocateNothing: on the serial path a
// CSR x dense product into an accumulator the caller gives, and a dense
// transpose into a block the caller gives — one taken from an Arena — write
// where they are told and allocate nothing of their own.
func TestSerialKernelsIntoGivenBlocksAllocateNothing(t *testing.T) {
	x := RandomSparse(64, 48, 0.1, -1, 1, 71)
	y := RandomDense(48, 32, -1, 1, 72)
	acc := NewDense(64, 32)
	if n := testing.AllocsPerRun(20, func() { MatMulAccWith(nil, acc, x, y) }); n != 0 {
		t.Errorf("serial CSR x dense into a given accumulator allocates %.0f times", n)
	}
	d := RandomDense(40, 24, -1, 1, 73)
	var a Arena
	out := a.Dense(24, 40)
	for i := range out.Data {
		out.Data[i] = 7 // what the arena's storage held before: overwritten
	}
	if got := TransposeInto(nil, out, d); got != out || !Equal(out, Transpose(d)) {
		t.Fatal("TransposeInto is not the transpose, in the block it was given")
	}
	if n := testing.AllocsPerRun(20, func() { TransposeInto(nil, out, d) }); n != 0 {
		t.Errorf("serial transpose into a given block allocates %.0f times", n)
	}
}

func TestAddAcc(t *testing.T) {
	d1, d2 := RandomDense(9, 7, -1, 1, 61), RandomDense(9, 7, -1, 1, 62)
	want := Binary(Add, d1, d2)
	if got := AddAcc(d1.Clone(), d2); !bitEqual(got, want) {
		t.Fatal("dense += dense differs from Binary(Add)")
	}
	// CSR into CSR of one shared pattern: in place, and a sum that cancels is
	// dropped into a rebuilt pattern — the shared one is never written.
	pat := RandomSparse(9, 7, 0.4, 1, 2, 63)
	col := append([]int(nil), pat.Col...)
	s1 := &CSR{Rows: 9, Cols: 7, RowPtr: pat.RowPtr, Col: pat.Col, Val: append([]float64(nil), pat.Val...)}
	s2 := &CSR{Rows: 9, Cols: 7, RowPtr: pat.RowPtr, Col: pat.Col, Val: append([]float64(nil), pat.Val...)}
	s2.Val[3] = -s1.Val[3]
	wantS := Binary(Add, s1.Clone(), s2)
	gotS := AddAcc(s1, s2)
	if !bitEqual(gotS, wantS) || gotS.NNZ() != pat.NNZ()-1 {
		t.Fatalf("CSR += CSR: got %d values, want %d", gotS.NNZ(), wantS.NNZ())
	}
	for q := range col {
		if pat.Col[q] != col[q] {
			t.Fatal("AddAcc wrote into a shared pattern")
		}
	}
	if got := AddAcc(d1.Clone(), pat); !EqualApprox(got, Binary(Add, d1, pat), 0) {
		t.Fatal("dense += CSR differs from Binary(Add)")
	}
}
