//go:build amd64 && unix

package matrix

import (
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n values that end where an unreadable page begins, so a
// kernel that loads even one element past its operand faults.
func guarded[T float64 | int](t *testing.T, n int) []T {
	t.Helper()
	page := syscall.Getpagesize()
	size := (n*8 + page) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // the test is over either way
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[size-n*8])), n)
}

// guardedCopy is src in guarded memory.
func guardedCopy[T float64 | int](t *testing.T, src []T) []T {
	dst := guarded[T](t, len(src))
	copy(dst, src)
	return dst
}

// TestAssemblyStaysInBounds runs the assembly kernels on operands each of
// which ends at an unreadable page — the last a and bt rows, the values
// buffer, the pattern's RowPtr and Col, of a group of one and of a group of
// several terms, whose last term is narrower — the sparse x dense row
// kernels' operands and
// accumulators at every width under both levels' forms (the AVX-512 forms'
// masked tails among them), adding and storing, the unary strips and the
// element-wise strips at every length, GEMM tiles with every edge under both
// micro-kernels, adding and storing, and both stride orders of the left
// operand, and the 8x8 transpose kernel's source and destination with and
// without ragged edges — and requires the results of ordinary memory.
func TestAssemblyStaysInBounds(t *testing.T) {
	if simdLevel < levelAVX2 {
		t.Skip("CPU lacks AVX, FMA3 or AVX2")
	}
	defer failOnFault(t)()
	rng := rand.New(rand.NewSource(22))

	const rows, cols = 7, 9
	mask := RandomSparse(rows, cols, 0.4, 1, 2, 1)
	if mask.RowPtr[rows-1] == mask.RowPtr[rows] {
		t.Fatal("the last mask row is empty: the case is not the one meant")
	}
	gmask := &CSR{Rows: rows, Cols: cols, RowPtr: guardedCopy(t, mask.RowPtr), Col: guardedCopy(t, mask.Col), Val: mask.Val}
	for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 31, 64, 67} {
		a, bt := special(rng, make([]float64, rows*k)), special(rng, make([]float64, cols*k))
		want, got := make([]float64, mask.NNZ()), guarded[float64](t, mask.NNZ())
		MaskedMatMulAccWith(nil, mask, want, NewDenseData(rows, k, a), NewDenseData(cols, k, bt))
		MaskedMatMulAccWith(nil, gmask, got, NewDenseData(rows, k, guardedCopy(t, a)), NewDenseData(cols, k, guardedCopy(t, bt)))
		if !sameFloats(got, want) {
			t.Errorf("sddmm, k=%d: guarded operands give other values", k)
		}
	}

	// The group kernel: three terms, each operand of each in guarded memory,
	// the last term an edge block with fewer columns.
	t.Run("sddmm/group", func(t *testing.T) {
		if simdLevel < levelAVX512 {
			t.Skip(asmLevels[1].lacks)
		}
		defer failOnFault(t)()
		masks := []*CSR{mask, RandomSparse(rows, cols, 0.5, 1, 2, 2), RandomSparse(rows, 4, 0.6, 1, 2, 3)}
		for _, k := range []int{1, 3, 4, 5, 8, 9, 12, 15, 16, 31, 64, 67} {
			a := special(rng, make([]float64, rows*k))
			want, got := make([]MaskedTerm, len(masks)), make([]MaskedTerm, len(masks))
			for j, m := range masks {
				bt := special(rng, make([]float64, m.Cols*k))
				gm := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: guardedCopy(t, m.RowPtr), Col: guardedCopy(t, m.Col), Val: m.Val}
				want[j] = MaskedTerm{Mask: m, Acc: make([]float64, m.NNZ()), Bt: NewDenseData(m.Cols, k, bt)}
				got[j] = MaskedTerm{Mask: gm, Acc: guarded[float64](t, m.NNZ()), Bt: NewDenseData(m.Cols, k, guardedCopy(t, bt))}
			}
			MaskedMatMulGroupAccWith(nil, NewDenseData(rows, k, a), want)
			MaskedMatMulGroupAccWith(nil, NewDenseData(rows, k, guardedCopy(t, a)), got)
			for j := range masks {
				if !sameFloats(got[j].Acc, want[j].Acc) {
					t.Errorf("sddmm group, k=%d, term %d: guarded operands give other values", k, j)
				}
			}
		}
	})

	// The row kernels at each level: a pattern whose last row and last column
	// hold values, so the last rows of the dense operand and of both
	// accumulators are read or written, at every width.
	d := NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if i != 2 && (i*j)%4 != 1 {
				d.Data[i*cols+j] = float64(1 + i + j)
			}
		}
	}
	x := ToCSR(d)
	gx := &CSR{Rows: rows, Cols: cols, RowPtr: guardedCopy(t, x.RowPtr), Col: guardedCopy(t, x.Col), Val: guardedCopy(t, x.Val)}
	for _, lv := range asmLevels {
		t.Run("spmm/"+lv.name, func(t *testing.T) {
			if simdLevel < lv.level {
				t.Skip(lv.lacks)
			}
			defer failOnFault(t)()
			atLevel(lv.level, func() {
				for n := 1; n <= 70; n++ {
					y, acc := special(rng, make([]float64, cols*n)), special(rng, make([]float64, rows*n))
					want := MatMulAccWith(nil, NewDenseData(rows, n, slices.Clone(acc)), x, NewDenseData(cols, n, y))
					got := MatMulAccWith(nil, NewDenseData(rows, n, guardedCopy(t, acc)), gx, NewDenseData(cols, n, guardedCopy(t, y)))
					if !sameFloats(got.Data, want.Data) {
						t.Errorf("csr x dense, n=%d: guarded operands give other values", n)
					}
					want = MatMulInto(nil, NewDenseData(rows, n, slices.Clone(acc)), x, NewDenseData(cols, n, y))
					got = MatMulInto(nil, NewDenseData(rows, n, guardedCopy(t, acc)), gx, NewDenseData(cols, n, guardedCopy(t, y)))
					if !sameFloats(got.Data, want.Data) {
						t.Errorf("csr x dense stored, n=%d: guarded operands give other values", n)
					}
					a, accT := special(rng, make([]float64, rows*n)), special(rng, make([]float64, cols*n))
					wantT, gotT := NewDenseData(cols, n, slices.Clone(accT)), NewDenseData(cols, n, guardedCopy(t, accT))
					MatMulTransAccWith(nil, wantT, NewDenseData(rows, n, a), x)
					MatMulTransAccWith(nil, gotT, NewDenseData(rows, n, guardedCopy(t, a)), gx)
					if !sameFloats(gotT.Data, wantT.Data) {
						t.Errorf("dense x csr, n=%d: guarded operands give other values", n)
					}
				}
			})
		})
	}

	// The transpose: the last tile of an 8-aligned source ends at the page,
	// and so does the destination's last row.
	t.Run("transpose/avx512", func(t *testing.T) {
		if simdLevel < levelAVX512 {
			t.Skip(asmLevels[1].lacks)
		}
		defer failOnFault(t)()
		for _, sh := range []struct{ r, c int }{{8, 8}, {16, 24}, {24, 16}, {9, 17}, {17, 9}, {64, 256}, {256, 64}} {
			a := special(rng, make([]float64, sh.r*sh.c))
			want := Transpose(NewDenseData(sh.r, sh.c, a)).(*Dense)
			got := NewDenseData(sh.c, sh.r, guarded[float64](t, sh.r*sh.c))
			transposeDense(NewDenseData(sh.r, sh.c, guardedCopy(t, a)), got, 0, sh.c)
			if !sameBits(got, want) {
				t.Errorf("%dx%d: guarded operands give other values", sh.r, sh.c)
			}
		}
	})

	// The element-wise strips: every operand, the destination, and for the
	// scalar forms the operand the destination aliases, end at the page.
	t.Run("strips/avx512", func(t *testing.T) {
		if simdLevel < levelAVX512 {
			t.Skip(asmLevels[1].lacks)
		}
		defer failOnFault(t)()
		for n := 0; n <= 70; n++ {
			for _, op := range []BinOp{Add, Sub, Mul, Div} {
				x, y := stripOperands(rng, op, n)
				for _, flush := range []bool{false, true} {
					want, got := make([]float64, n), guarded[float64](t, n)
					portably(func() { combine(op, want, x, y, flush) })
					combine(op, got, guardedCopy(t, x), guardedCopy(t, y), flush)
					if !sameFloats(got, want) {
						t.Errorf("combine %v, n=%d: guarded operands give other values", op, n)
					}
					for _, left := range []bool{false, true} {
						portably(func() { combineScalar(op, want, x, 0.75, left, flush) })
						got := guardedCopy(t, x)
						combineScalar(op, got, got, 0.75, left, flush)
						if !sameFloats(got, want) {
							t.Errorf("combineScalar %v, n=%d: guarded operands give other values", op, n)
						}
					}
				}
			}
			x, _ := stripOperands(rng, Mul, n)
			want, got := make([]float64, n), guarded[float64](t, n)
			portably(func() { flushStrip(want, x) })
			flushStrip(got, guardedCopy(t, x))
			if !sameFloats(got, want) {
				t.Errorf("flushStrip, n=%d: guarded operands give other values", n)
			}
			fill(got, -2)
			if slices.ContainsFunc(got, func(v float64) bool { return v != -2 }) {
				t.Errorf("fill, n=%d: guarded destination holds other values", n)
			}
		}
	})

	for _, k := range stripKernels {
		u := unaryFuncs[k.name]
		odd := func(rng *rand.Rand) float64 { return k.edges[rng.Intn(len(k.edges))] }
		for n := 0; n <= 70; n++ {
			src := specialFrom(rng, make([]float64, n), k.ordinary, odd)
			want, got, in := make([]float64, n), guarded[float64](t, n), guardedCopy(t, src)
			u.Strip(want, src)
			u.Strip(got, guardedCopy(t, src))
			u.Strip(in, in)
			if !sameFloats(got, want) || !sameFloats(in, want) {
				t.Errorf("%s, n=%d: guarded operands give other values", k.name, n)
			}
		}
	}

	// Both micro-kernels (on a machine with the wide one, the narrow one is
	// forced too), with the left operand as stored and read transposed.
	for _, lv := range asmLevels {
		t.Run("gemm/"+lv.name, func(t *testing.T) {
			if simdLevel < lv.level {
				t.Skip(lv.lacks)
			}
			defer failOnFault(t)()
			atLevel(lv.level, func() {
				for _, sh := range []struct{ m, k, n int }{{4, 1, 8}, {4, 64, 8}, {8, 1, 16}, {8, 3, 16}, {8, 64, 16}, {5, 9, 11}, {13, 7, 29}, {64, 64, 64}, {68, 65, 72}} {
					a, b := special(rng, make([]float64, sh.m*sh.k)), special(rng, make([]float64, sh.k*sh.n))
					at := Transpose(NewDenseData(sh.m, sh.k, a)).(*Dense).Data
					want := NewDense(sh.m, sh.n)
					nn, tn := NewDenseData(sh.m, sh.n, guarded[float64](t, sh.m*sh.n)), NewDenseData(sh.m, sh.n, guarded[float64](t, sh.m*sh.n))
					MatMulAccWith(nil, want, NewDenseData(sh.m, sh.k, a), NewDenseData(sh.k, sh.n, b))
					MatMulAccWith(nil, nn, NewDenseData(sh.m, sh.k, guardedCopy(t, a)), NewDenseData(sh.k, sh.n, guardedCopy(t, b)))
					MatMulTNAccWith(nil, tn, NewDenseData(sh.k, sh.m, guardedCopy(t, at)), NewDenseData(sh.k, sh.n, guardedCopy(t, b)))
					if !sameFloats(nn.Data, want.Data) || !sameFloats(tn.Data, want.Data) {
						t.Errorf("%dx%dx%d: guarded operands give other values", sh.m, sh.k, sh.n)
					}
					nan := make([]float64, sh.m*sh.n)
					for i := range nan {
						nan[i] = math.NaN()
					}
					nn, tn = NewDenseData(sh.m, sh.n, guardedCopy(t, nan)), NewDenseData(sh.m, sh.n, guardedCopy(t, nan))
					MatMulInto(nil, nn, NewDenseData(sh.m, sh.k, guardedCopy(t, a)), NewDenseData(sh.k, sh.n, guardedCopy(t, b)))
					MatMulTNInto(nil, tn, NewDenseData(sh.k, sh.m, guardedCopy(t, at)), NewDenseData(sh.k, sh.n, guardedCopy(t, b)))
					if !sameFloats(nn.Data, want.Data) || !sameFloats(tn.Data, want.Data) {
						t.Errorf("%dx%dx%d stored: guarded operands give other values", sh.m, sh.k, sh.n)
					}
				}
			})
		})
	}
}

// failOnFault makes a memory fault on the calling goroutine fail t, with
// defer failOnFault(t)(): a fault panics until the returned function has run,
// and that function reports the panic.
func failOnFault(t *testing.T) func() {
	was := debug.SetPanicOnFault(true)
	return func() {
		debug.SetPanicOnFault(was)
		if r := recover(); r != nil {
			t.Fatalf("an assembly kernel read or wrote outside its operands: %v", r)
		}
	}
}
