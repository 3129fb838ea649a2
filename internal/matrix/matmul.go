package matrix

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"fuseme/internal/parallel"
)

// Tile sizes for the blocked dense kernel. 64x64 float64 tiles are 32 KiB —
// an a-tile plus a b-tile fit in a typical 256 KiB L2 with room for the
// output panel, and 64 divides evenly into the register micro-kernel's 4-wide
// steps so full tiles never hit the edge path.
const (
	tileI = 64
	tileK = 64
	tileJ = 64
)

// rowGrain is the minimum number of rows worth a helper goroutine in the
// row-parallel sparse and masked kernels.
const rowGrain = 16

// The kernels that have an assembly form, as countKernel names them.
const (
	kernelGEMM = iota
	kernelSDDMM
	kernelAxpy
	kernelLog
	kernelExp
	kernelSigmoid
	numKernels
)

// MatMul computes a x b on the serial path; see MatMulWith.
func MatMul(a, b Mat) Mat { return MatMulWith(nil, a, b) }

// MatMulWith computes a x b into a fresh block: MatMulAccWith on a zeroed
// accumulator. The result is dense except for CSR x CSR, which is compressed
// when the result density stays below SparseResultThreshold.
func MatMulWith(p *parallel.Pool, a, b Mat) Mat {
	ar, _ := a.Dims()
	_, bc := b.Dims()
	out := NewDense(ar, bc)
	matMulAcc(p, out, a, b, true)
	if a.IsSparse() && b.IsSparse() {
		return MaybeCompress(out, SparseResultThreshold)
	}
	return out
}

// MatMulAccWith accumulates acc += a x b in place, splitting row panels
// across p's kernel threads (p may be nil for the serial path). acc must be
// a buffer the caller owns. Dispatch is by representation: dense x dense,
// CSR x dense and CSR x CSR have dedicated kernels, and dense x CSR runs
// MatMulTransAccWith on a transposed copy of a.
//
// Every kernel sums the product of one element first and adds it to acc
// once — aside, or in place where acc is still zero, which gives the same
// bits — so the result is bit-identical to adding a separately computed
// MatMulWith product, and at every thread count: each output element is
// computed by exactly one goroutine, and the per-element accumulation order
// is fixed by the tile grid, not by the partition.
func MatMulAccWith(p *parallel.Pool, acc *Dense, a, b Mat) { matMulAcc(p, acc, a, b, false) }

// matMulAcc is MatMulAccWith; fresh promises acc is all zeros, which saves
// the sparse kernels finding it out row by row: on the repo benchmark's
// 0.005-dense block that scan costs as much as the CSR x dense product.
func matMulAcc(p *parallel.Pool, acc *Dense, a, b Mat, fresh bool) {
	ar, ak := a.Dims()
	bk, bc := b.Dims()
	if ak != bk || acc.Rows != ar || acc.Cols != bc {
		panic(fmt.Sprintf("matrix: matmul shape mismatch %dx%d x %dx%d into %dx%d", ar, ak, bk, bc, acc.Rows, acc.Cols))
	}
	switch x := a.(type) {
	case *Dense:
		switch y := b.(type) {
		case *Dense:
			p.For(ar, tileI, func(lo, hi int) { matMulDDPanel(x, y, acc, lo, hi) })
			return
		case *CSR:
			// The product, transposed, summed aside and added once.
			prodT := NewDense(bc, ar)
			MatMulTransAccWith(p, prodT, TransposeWith(p, x).(*Dense), y)
			AddAcc(acc, TransposeWith(p, prodT))
			return
		}
	case *CSR:
		switch y := b.(type) {
		case *Dense:
			accRows(p, acc, fresh, func(i int, row []float64) bool {
				cols, vals := x.RowNNZ(i)
				for q, k := range cols {
					axpy(row, vals[q], y.Row(k))
				}
				return len(cols) > 0
			})
			return
		case *CSR:
			accRows(p, acc, fresh, func(i int, row []float64) bool {
				acols, avals := x.RowNNZ(i)
				for q, k := range acols {
					av := avals[q]
					bcols, bvals := y.RowNNZ(k)
					for r, j := range bcols {
						row[j] += av * bvals[r]
					}
				}
				return len(acols) > 0
			})
			return
		}
	}
	panic("matrix: unsupported Mat implementation")
}

// SparseResultThreshold is the density below which sparse x sparse products
// are stored in CSR form.
const SparseResultThreshold = 0.25

// accRows is the row-parallel driver of the sparse kernels: fill sums row i
// of the product into a zeroed row (reporting whether it touched it) — acc's
// own row while that is still zero, otherwise a scratch row which is then
// added to acc's row and re-zeroed.
func accRows(p *parallel.Pool, acc *Dense, fresh bool, fill func(i int, row []float64) bool) {
	p.For(acc.Rows, rowGrain, func(lo, hi int) {
		row := make([]float64, acc.Cols)
		for i := lo; i < hi; i++ {
			orow := acc.Row(i)
			if fresh || allZero(orow) {
				fill(i, orow)
				continue
			}
			if !fill(i, row) {
				continue
			}
			for j, v := range row {
				orow[j] += v
				row[j] = 0
			}
		}
	})
}

// axpy computes dst += s * x over len(x) elements: per element one multiply,
// rounded, then one add — never fused, which the conversion states for the
// architectures whose compiler would. axpyAVX is the same arithmetic.
func axpy(dst []float64, s float64, x []float64) {
	dst = dst[:len(x)]
	if hasAVX && len(x) > 0 {
		countKernel(kernelAxpy)
		axpyAVX(&dst[0], &x[0], len(x), s)
		return
	}
	for j, v := range x {
		dst[j] += float64(s * v)
	}
}

// MatMulTransAccWith is the dense x CSR kernel. It accumulates
// accT += t(b) x a for dense a (K x m) and CSR b (K x n): the transpose of
// t(a) x b, so GNMF's t(V) %*% X is taken straight from the untransposed
// factor block. It walks b's rows and does one contiguous m-wide axpy per
// non-zero, where a row-major accumulator would take a scatter of b's ~nnz/K
// entries per inner iteration. Kernel threads split the m columns, so each
// element is still summed by one goroutine in k order. accT (n x m) must be
// owned by the caller, which transposes it once when the sum is complete.
func MatMulTransAccWith(p *parallel.Pool, accT *Dense, a *Dense, b *CSR) {
	m := a.Cols
	if a.Rows != b.Rows || accT.Rows != b.Cols || accT.Cols != m {
		panic(fmt.Sprintf("matrix: transposed matmul shape mismatch t(%dx%d) x %dx%d into t(%dx%d)",
			a.Rows, m, b.Rows, b.Cols, accT.Rows, accT.Cols))
	}
	p.For(m, rowGrain, func(lo, hi int) {
		for k := 0; k < b.Rows; k++ {
			cols, vals := b.RowNNZ(k)
			arow := a.Data[k*m+lo : k*m+hi]
			for q, j := range cols {
				axpy(accT.Data[j*m+lo:j*m+hi], vals[q], arow)
			}
		}
	})
}

// panelPool recycles the row-panel scratch of matMulDDPanel. A slice in the
// pool is all zeros.
var panelPool sync.Pool

// matMulDDPanel accumulates rows [rLo, rHi) of a x b into acc with the
// cache-blocked, register-tiled dense kernel, walking the fixed i/k/j tile
// grid. A product spanning several k-tiles is summed first (k-tiles
// ascending) and added to acc once: in a zeroed scratch row panel, or in
// place where acc's rows are still zero.
func matMulDDPanel(a, b, acc *Dense, rLo, rHi int) {
	K, N := a.Cols, b.Cols
	var panel *[]float64
	for it := rLo; it < rHi; it += tileI {
		iMax := minInt(it+tileI, rHi)
		rows := acc.Data[it*N : iMax*N]
		out := rows
		if K > tileK && !allZero(rows) {
			if panel == nil {
				panel, _ = panelPool.Get().(*[]float64)
			}
			if panel == nil || cap(*panel) < tileI*N {
				s := make([]float64, tileI*N)
				panel = &s
			}
			out = (*panel)[:tileI*N]
		}
		for kt := 0; kt < K; kt += tileK {
			kMax := minInt(kt+tileK, K)
			for jt := 0; jt < N; jt += tileJ {
				mulTile(a, b, out[jt:], N, it, iMax, kt, kMax, jt, minInt(jt+tileJ, N))
			}
		}
		if &out[0] != &rows[0] {
			for x, v := range out[:len(rows)] {
				rows[x] += v
				out[x] = 0
			}
		}
	}
	if panel != nil {
		panelPool.Put(panel)
	}
}

func allZero(s []float64) bool {
	for _, v := range s {
		if v != 0 {
			return false
		}
	}
	return true
}

// mulTile multiplies one (i,k)x(k,j) tile pair into out, whose element
// (iLo, jLo) is out[0] and whose row stride is ldo. It runs the 4x8 FMA
// micro-kernel (hasAVX) or the portable 4x4 register micro-kernel on
// full-width strips, and an edge loop on the remainder. The arithmetic is
// defined once: every output element has one accumulator, which takes
// acc = fma(a, b, acc) — one rounding per step — over the tile's k range, k
// ascending, and is added into out once per tile. Assembly strips, portable
// strips and edge rows therefore match bitwise, on every machine: math.FMA is
// the hardware instruction on amd64 with FMA3 and on arm64, and exact (and
// slow) software elsewhere.
func mulTile(a, b *Dense, out []float64, ldo, iLo, iMax, kLo, kMax, jLo, jMax int) {
	if kLo >= kMax {
		return
	}
	i := iLo
	if hasAVX {
		countKernel(kernelGEMM)
		K, N := a.Cols, b.Cols
		kn, ldaB, ldbB := uintptr(kMax-kLo), uintptr(K*8), uintptr(N*8)
		for ; i+4 <= iMax; i += 4 {
			j := jLo
			for ; j+8 <= jMax; j += 8 {
				microAVX4x8(&a.Data[i*K+kLo], &b.Data[kLo*N+j], &out[(i-iLo)*ldo+j-jLo],
					kn, ldaB, ldbB, uintptr(ldo*8))
			}
			if j < jMax {
				edgeTile(a, b, out[(i-iLo)*ldo+j-jLo:], ldo, i, i+4, kLo, kMax, j, jMax)
			}
		}
		if i < iMax {
			edgeTile(a, b, out[(i-iLo)*ldo:], ldo, i, iMax, kLo, kMax, jLo, jMax)
		}
		return
	}
	for ; i+4 <= iMax; i += 4 {
		j := jLo
		for ; j+4 <= jMax; j += 4 {
			micro4x4(a, b, out[(i-iLo)*ldo+j-jLo:], ldo, i, j, kLo, kMax)
		}
		if j < jMax {
			edgeTile(a, b, out[(i-iLo)*ldo+j-jLo:], ldo, i, i+4, kLo, kMax, j, jMax)
		}
	}
	if i < iMax {
		edgeTile(a, b, out[(i-iLo)*ldo:], ldo, i, iMax, kLo, kMax, jLo, jMax)
	}
}

// micro4x4 is the portable twin of microAVX4x8: it accumulates the 4x4 output
// block at (i0, j0) over k in [kLo, kMax) in sixteen scalar accumulators the
// compiler keeps in registers, touching out (whose out[0] is element (i0, j0),
// row stride ldo) only once per tile.
func micro4x4(a, b *Dense, out []float64, ldo, i0, j0, kLo, kMax int) {
	K, N := a.Cols, b.Cols
	kn := kMax - kLo
	a0 := a.Data[i0*K+kLo : i0*K+kMax : i0*K+kMax]
	a1 := a.Data[(i0+1)*K+kLo : (i0+1)*K+kMax : (i0+1)*K+kMax]
	a2 := a.Data[(i0+2)*K+kLo : (i0+2)*K+kMax : (i0+2)*K+kMax]
	a3 := a.Data[(i0+3)*K+kLo : (i0+3)*K+kMax : (i0+3)*K+kMax]
	bd := b.Data
	bi := kLo*N + j0
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	for k := 0; k < kn; k++ {
		b0, b1, b2, b3 := bd[bi], bd[bi+1], bd[bi+2], bd[bi+3]
		bi += N
		av := a0[k]
		c00 = math.FMA(av, b0, c00)
		c01 = math.FMA(av, b1, c01)
		c02 = math.FMA(av, b2, c02)
		c03 = math.FMA(av, b3, c03)
		av = a1[k]
		c10 = math.FMA(av, b0, c10)
		c11 = math.FMA(av, b1, c11)
		c12 = math.FMA(av, b2, c12)
		c13 = math.FMA(av, b3, c13)
		av = a2[k]
		c20 = math.FMA(av, b0, c20)
		c21 = math.FMA(av, b1, c21)
		c22 = math.FMA(av, b2, c22)
		c23 = math.FMA(av, b3, c23)
		av = a3[k]
		c30 = math.FMA(av, b0, c30)
		c31 = math.FMA(av, b1, c31)
		c32 = math.FMA(av, b2, c32)
		c33 = math.FMA(av, b3, c33)
	}
	o := out
	o[0] += c00
	o[1] += c01
	o[2] += c02
	o[3] += c03
	o = out[ldo:]
	o[0] += c10
	o[1] += c11
	o[2] += c12
	o[3] += c13
	o = out[2*ldo:]
	o[0] += c20
	o[1] += c21
	o[2] += c22
	o[3] += c23
	o = out[3*ldo:]
	o[0] += c30
	o[1] += c31
	o[2] += c32
	o[3] += c33
}

// edgeTile handles tile remainders narrower than the micro-kernel,
// accumulating each output element over the tile's k range in a scalar
// before the single += — mulTile's arithmetic. out[0] is element (iLo, jLo),
// row stride ldo.
func edgeTile(a, b *Dense, out []float64, ldo, iLo, iMax, kLo, kMax, jLo, jMax int) {
	K, N := a.Cols, b.Cols
	for i := iLo; i < iMax; i++ {
		arow := a.Data[i*K : i*K+kMax]
		orow := out[(i-iLo)*ldo : (i-iLo)*ldo+jMax-jLo]
		for j := jLo; j < jMax; j++ {
			var s float64
			for k := kLo; k < kMax; k++ {
				s = math.FMA(arow[k], b.Data[k*N+j], s)
			}
			orow[j-jLo] += s
		}
	}
}

// AddAcc returns acc + x, folding into acc in place where the
// representations allow: dense into dense, and CSR into CSR of the same
// pattern (masked partial products), where sums that cancel to zero are
// dropped as the sparse add drops them. acc must be owned by the caller and
// is invalid afterwards; any other pairing builds a fresh block.
func AddAcc(acc, x Mat) Mat {
	checkSameShape("+", acc, x)
	switch a := acc.(type) {
	case *Dense:
		if d, ok := x.(*Dense); ok {
			for i, v := range d.Data {
				a.Data[i] += v
			}
			return a
		}
	case *CSR:
		if s, ok := x.(*CSR); ok && slices.Equal(a.Col, s.Col) && slices.Equal(a.RowPtr, s.RowPtr) {
			zeros := 0
			for p, v := range s.Val {
				a.Val[p] += v
				if a.Val[p] == 0 {
					zeros++
				}
			}
			if zeros == 0 {
				return a
			}
			out := NewCSR(a.Rows, a.Cols) // the pattern may be shared: rebuild it
			for i := 0; i < a.Rows; i++ {
				cols, vals := a.RowNNZ(i)
				for p, v := range vals {
					if v != 0 {
						out.Col = append(out.Col, cols[p])
						out.Val = append(out.Val, v)
					}
				}
				out.RowPtr[i+1] = len(out.Val)
			}
			return out
		}
	}
	return Binary(Add, acc, x)
}

// MatMulFlops returns the flop count charged for a x b: 2*nnz(a)*cols(b) for
// a sparse left operand, otherwise 2*rows*inner*cols.
func MatMulFlops(a, b Mat) int64 {
	ar, ak := a.Dims()
	_, bc := b.Dims()
	if a.IsSparse() {
		return 2 * int64(a.NNZ()) * int64(bc)
	}
	return 2 * int64(ar) * int64(ak) * int64(bc)
}

// MaskedMatMul is MaskedMatMulWith on the serial path.
func MaskedMatMul(mask *CSR, a, b Mat) *CSR { return MaskedMatMulWith(nil, mask, a, b) }

// MaskedMatMulWith computes (a x b) restricted to the non-zero pattern of
// mask into a fresh block: b is transposed once and MaskedMatMulAccWith runs
// on zeroed values. The result shares mask's pattern slices (blocks are
// immutable) and has exactly that pattern; values may be zero.
func MaskedMatMulWith(p *parallel.Pool, mask *CSR, a, b Mat) *CSR {
	out := mask.WithValues(make([]float64, len(mask.Col)))
	MaskedMatMulAccWith(p, mask, out.Val, a, TransposeWith(p, b))
	return out
}

// MaskedMatMulAccWith accumulates, for every stored (i,j) of mask at
// position q, acc[q] += a[i,:] . bt[j,:] — the SDDMM of outer fusion
// (Section 2.1 of the paper): for sparse mask X only nnz(X) dot products are
// computed instead of rows x cols. The right operand comes transposed, so
// every dot product walks two contiguous rows; a caller that holds b and not
// t(b) transposes it once per call, as MaskedMatMulWith does. Mask rows are
// split across p's kernel threads, and between dense operands each row range
// is one kernel call (sddmmRows); each position is written by exactly one
// goroutine, so results are bit-identical at every thread count. acc (len
// nnz(mask)) must be owned by the caller.
func MaskedMatMulAccWith(p *parallel.Pool, mask *CSR, acc []float64, a, bt Mat) {
	ar, ak := a.Dims()
	bc, bk := bt.Dims()
	if ak != bk || mask.Rows != ar || mask.Cols != bc || len(acc) != len(mask.Col) {
		panic(fmt.Sprintf("matrix: masked matmul shape mismatch mask %dx%d (%d values), a %dx%d, t(b) %dx%d",
			mask.Rows, mask.Cols, len(acc), ar, ak, bc, bk))
	}
	da, denseA := a.(*Dense)
	db, denseB := bt.(*Dense)
	if denseA && denseB {
		p.For(mask.Rows, rowGrain, func(rLo, rHi int) { sddmmRows(mask, rLo, rHi, da, db, acc) })
		return
	}
	p.For(mask.Rows, rowGrain, func(rLo, rHi int) {
		for i := rLo; i < rHi; i++ {
			for q := mask.RowPtr[i]; q < mask.RowPtr[i+1]; q++ {
				var s float64
				for k := 0; k < ak; k++ {
					s += a.At(i, k) * bt.At(mask.Col[q], k)
				}
				acc[q] += s
			}
		}
	})
}

// sddmmRows is the dense/dense SDDMM over mask rows [rLo, rHi): one call of
// the assembly kernel, which walks the pattern itself, or one dot per stored
// position — the same arithmetic.
func sddmmRows(mask *CSR, rLo, rHi int, a, bt *Dense, acc []float64) {
	if hasAVX && a.Cols > 0 && len(acc) > 0 {
		countKernel(kernelSDDMM)
		sddmmAVX(&mask.RowPtr[0], &mask.Col[0], rLo, rHi, len(acc), &a.Data[0], &bt.Data[0], &acc[0], a.Cols)
		return
	}
	for i := rLo; i < rHi; i++ {
		arow := a.Row(i)
		for q := mask.RowPtr[i]; q < mask.RowPtr[i+1]; q++ {
			acc[q] += dot(arow, bt.Row(mask.Col[q]))
		}
	}
}

// dot returns x . y over len(x) elements in four interleaved partial sums
// (independent add chains keep the FP pipeline full), combined pairwise. Each
// step is one multiply, rounded, then one add — never fused, which the
// conversions state for the architectures whose compiler would — so that
// sddmmAVX, whose four lanes are s0..s3, gives the same bits.
func dot(x, y []float64) float64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	k := 0
	for ; k+4 <= len(x); k += 4 {
		s0 += float64(x[k] * y[k])
		s1 += float64(x[k+1] * y[k+1])
		s2 += float64(x[k+2] * y[k+2])
		s3 += float64(x[k+3] * y[k+3])
	}
	for ; k < len(x); k++ {
		s0 += float64(x[k] * y[k])
	}
	return (s0 + s1) + (s2 + s3)
}

// MaskedMatMulFlops returns the flop count charged for a masked product:
// 2 * nnz(mask) * inner.
func MaskedMatMulFlops(mask *CSR, inner int) int64 {
	return 2 * int64(mask.NNZ()) * int64(inner)
}

// transposeTile is the tile edge of the dense transpose: 8 float64 are one
// cache line.
const transposeTile = 8

// Transpose is TransposeWith on the serial path.
func Transpose(a Mat) Mat { return TransposeWith(nil, a) }

// TransposeWith returns the transpose of a, preserving representation. The
// dense path copies into disjoint output rows split across p's kernel
// threads, in transposeTile-square tiles so that both the reads and the writes
// of a tile stay within a few cache lines; it is a pure copy, so neither
// tiling nor parallelism can change the result. The CSR counting sort stays
// serial.
func TransposeWith(p *parallel.Pool, a Mat) Mat {
	switch x := a.(type) {
	case *Dense:
		out := NewDense(x.Cols, x.Rows)
		p.For(x.Cols, rowGrain, func(lo, hi int) {
			for i0 := 0; i0 < x.Rows; i0 += transposeTile {
				iMax := minInt(i0+transposeTile, x.Rows)
				for j0 := lo; j0 < hi; j0 += transposeTile {
					jMax := minInt(j0+transposeTile, hi)
					for i := i0; i < iMax; i++ {
						o := out.Data[j0*x.Rows+i:]
						for dj, v := range x.Data[i*x.Cols+j0 : i*x.Cols+jMax] {
							o[dj*x.Rows] = v
						}
					}
				}
			}
		})
		return out
	case *CSR:
		return transposeCSR(x)
	}
	panic("matrix: unsupported Mat implementation")
}

func transposeCSR(a *CSR) *CSR {
	out := NewCSR(a.Cols, a.Rows)
	out.Col = make([]int, len(a.Col))
	out.Val = make([]float64, len(a.Val))
	// Counting sort by column index.
	counts := make([]int, a.Cols+1)
	for _, j := range a.Col {
		counts[j+1]++
	}
	for j := 0; j < a.Cols; j++ {
		counts[j+1] += counts[j]
	}
	copy(out.RowPtr, counts[:a.Cols+1])
	next := make([]int, a.Cols)
	copy(next, counts[:a.Cols])
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.RowNNZ(i)
		for p, j := range cols {
			dst := next[j]
			out.Col[dst] = i
			out.Val[dst] = vals[p]
			next[j]++
		}
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
