package matrix

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"fuseme/internal/parallel"
)

// Tile sizes for the blocked dense kernel. A 64x64 float64 tile is 32 KiB:
// the a-tile is read once per 16 (or 8) output columns and stays in L1, the
// b-tile's rows come from L2 at the block's row stride — measured on the
// benchmark's machine (2 MB L2), packing them per (k, j) tile gained nothing,
// so the kernel does not pack. 64 is a multiple of every micro-kernel's steps (8x16,
// 4x8, 4x4), so full tiles never reach the edge loop. tileK is also part of
// the arithmetic: a product is added into its output once per k-tile, so
// another value gives other sums.
const (
	tileI = 64
	tileK = 64
	tileJ = 64
)

// The levels of assembly support, in order: a machine runs the widest form a
// kernel has at or below its simdLevel. The dense GEMM, the two sparse x
// dense row kernels and the dense transpose have a form at levelAVX512, and
// so has the dense non-zero count (nnzAVX512), which has none at levelAVX2;
// the transpose and the masked SDDMM (sddmmGroupAVX512) have no other
// assembly form either. The unary strips stop at levelAVX2: their bits are
// defined by four lanes, and so are the SDDMM's, whose 8-lane products are
// added as two 4-lane halves.
const (
	levelPortable = iota
	levelAVX2
	levelAVX512
)

// rowGrain is the minimum number of rows worth a helper goroutine in the
// row-parallel sparse and masked kernels.
const rowGrain = 16

// What countKernel counts: entries into the assembly arm of each kernel that
// has one, and into edgeTile, the dense GEMM's scalar remainder loop.
const (
	kernelGEMM = iota
	kernelGEMMEdge
	kernelSDDMM
	kernelSpMM
	kernelLog
	kernelExp
	kernelSigmoid
	kernelTranspose
	numKernels
)

// MatMul computes a x b on the serial path; see MatMulWith.
func MatMul(a, b Mat) Mat { return MatMulWith(nil, a, b) }

// MatMulWith computes a x b into a fresh block: MatMulAccWith without an
// accumulator. The result is dense except for CSR x CSR, which is compressed
// when the result density stays below SparseResultThreshold.
func MatMulWith(p *parallel.Pool, a, b Mat) Mat {
	out := MatMulAccWith(p, nil, a, b)
	if a.IsSparse() && b.IsSparse() {
		return MaybeCompress(out, SparseResultThreshold)
	}
	return out
}

// MatMulAccWith accumulates acc += a x b in place and returns acc, splitting
// row panels across p's kernel threads (p may be nil for the serial path).
// acc must be a buffer the caller owns, or nil for the first product of a
// sum: the product then goes into a fresh block, as MatMulInto. Dispatch is by
// representation: dense x dense, CSR x dense and CSR x CSR have dedicated
// kernels, and dense x CSR runs MatMulTransAccWith on a transposed copy of a.
//
// Every kernel sums the product of one element first and adds it to acc
// once — in registers, aside, or in place where acc is still +0, which gives
// the same bits — so the result is bit-identical to adding a separately
// computed MatMulWith product, and at every thread count: each output element
// is computed by exactly one goroutine, and the per-element accumulation
// order is fixed by the tile grid, not by the partition.
func MatMulAccWith(p *parallel.Pool, acc *Dense, a, b Mat) *Dense {
	if acc == nil {
		ar, _ := a.Dims()
		_, bc := b.Dims()
		return matMulAcc(p, NewDense(ar, bc), a, b, true)
	}
	return matMulAcc(p, acc, a, b, false)
}

// MatMulInto stores a x b into out, a block shaped as the product whose
// values are overwritten — one taken unzeroed from an Arena will do — and
// returns it. The kernels store the first term of each element's sum where
// MatMulAccWith adds it: the sum + 0, which has the bits of adding the sum
// onto +0, so out holds exactly what MatMulAccWith gives on a zeroed block,
// and no value out held before is read into it.
func MatMulInto(p *parallel.Pool, out *Dense, a, b Mat) *Dense {
	return matMulAcc(p, out, a, b, true)
}

// matMulAcc is MatMulAccWith, or with store set MatMulInto.
func matMulAcc(p *parallel.Pool, acc *Dense, a, b Mat, store bool) *Dense {
	ar, ak := a.Dims()
	bk, bc := b.Dims()
	if ak != bk || acc.Rows != ar || acc.Cols != bc {
		panic(fmt.Sprintf("matrix: matmul shape mismatch %dx%d x %dx%d into %dx%d", ar, ak, bk, bc, acc.Rows, acc.Cols))
	}
	if ak == 0 { // an empty sum: no kernel writes anything
		if store {
			clear(acc.Data)
		}
		return acc
	}
	switch x := a.(type) {
	case *Dense:
		switch y := b.(type) {
		case *Dense:
			matMulDD(p, acc, strided{x.Data, x.Cols, 1}, y, store)
			return acc
		case *CSR:
			// The product, transposed, summed aside and added once.
			prodT := NewDense(bc, ar)
			MatMulTransAccWith(p, prodT, TransposeWith(p, x).(*Dense), y)
			if store {
				return TransposeInto(p, acc, prodT)
			}
			AddAcc(acc, TransposeWith(p, prodT))
			return acc
		}
	case *CSR:
		switch y := b.(type) {
		case *Dense:
			spmmRowsWith(p, x, y, acc, store)
			return acc
		case *CSR:
			accRows(p, acc, store, func(i int, row []float64) {
				acols, avals := x.RowNNZ(i)
				for q, k := range acols {
					av := avals[q]
					bcols, bvals := y.RowNNZ(k)
					for r, j := range bcols {
						row[j] += float64(av * bvals[r])
					}
				}
			})
			return acc
		}
	}
	panic("matrix: unsupported Mat implementation")
}

// SparseResultThreshold is the density below which sparse x sparse products
// are stored in CSR form.
const SparseResultThreshold = 0.25

// accRows is the row-parallel driver of the CSR x CSR kernel: fill sums row i
// of the product into a zeroed row — acc's own row, cleared first when store
// says its values are to be overwritten, or while it is still +0; otherwise
// a scratch row which is then added to acc's row and re-zeroed. Each step of
// fill is a rounded multiply then an add, so a sum from +0 is never -0 and
// filling in place gives the bits of adding once.
func accRows(p *parallel.Pool, acc *Dense, store bool, fill func(i int, row []float64)) {
	p.For(acc.Rows, rowGrain, func(lo, hi int) {
		var row []float64
		for i := lo; i < hi; i++ {
			orow := acc.Row(i)
			if store {
				clear(orow)
			}
			if store || allZero(orow) {
				fill(i, orow)
				continue
			}
			if row == nil {
				row = make([]float64, acc.Cols)
			}
			fill(i, row)
			for j, v := range row {
				orow[j] += v
				row[j] = 0
			}
		}
	})
}

// spmmRowsWith runs spmmRows over all of acc's rows, split across p's kernel
// threads; a nil pool takes no closure, so the serial call allocates nothing.
func spmmRowsWith(p *parallel.Pool, x *CSR, y, acc *Dense, store bool) {
	if p == nil {
		spmmRows(x, y, acc, 0, acc.Rows, store)
		return
	}
	p.For(acc.Rows, rowGrain, func(lo, hi int) { spmmRows(x, y, acc, lo, hi, store) })
}

// spmmRows is the CSR x dense kernel over rows [rLo, rHi) of x: for each
// element of acc's row i, s = +0, then s += round(v * y[k][j]) over the row's
// stored (k, v) in order — multiply, rounded, then add, never fused, which
// the conversions state for the architectures whose compiler would — and
// acc[i][j] += s once — or, with store set, acc[i][j] = s + 0, the bits of
// adding s onto +0. So the product is summed aside and added once without
// a scratch row, and an empty row adds +0. The assembly forms walk the row
// range themselves: spmmRowsAVX512 each row once per 64 columns, then 32, 16,
// 8 and a masked tail; spmmRowsAVX in 16-column strips, then 4, then single
// columns. The portable loops take 4 columns at a time — per element the same
// arithmetic, so the bits agree.
func spmmRows(x *CSR, y, acc *Dense, rLo, rHi int, store bool) {
	n := y.Cols
	if simdLevel >= levelAVX2 && n > 0 && len(x.Col) > 0 {
		countKernel(kernelSpMM)
		if simdLevel >= levelAVX512 {
			spmmRowsAVX512(&x.RowPtr[0], &x.Col[0], &x.Val[0], rLo, rHi, &y.Data[0], &acc.Data[0], n, store)
		} else {
			spmmRowsAVX(&x.RowPtr[0], &x.Col[0], &x.Val[0], rLo, rHi, &y.Data[0], &acc.Data[0], n, store)
		}
		return
	}
	for i := rLo; i < rHi; i++ {
		cols, vals := x.RowNNZ(i)
		orow := acc.Row(i)
		j := 0
		for ; j+4 <= n; j += 4 {
			var s0, s1, s2, s3 float64
			for q, k := range cols {
				v, b := vals[q], y.Data[k*n+j:k*n+j+4]
				s0 += float64(v * b[0])
				s1 += float64(v * b[1])
				s2 += float64(v * b[2])
				s3 += float64(v * b[3])
			}
			o := orow[j : j+4]
			if store {
				o[0], o[1], o[2], o[3] = s0+0, s1+0, s2+0, s3+0
			} else {
				o[0] += s0
				o[1] += s1
				o[2] += s2
				o[3] += s3
			}
		}
		for ; j < n; j++ {
			var s float64
			for q, k := range cols {
				s += float64(vals[q] * y.Data[k*n+j])
			}
			if store {
				orow[j] = s + 0
			} else {
				orow[j] += s
			}
		}
	}
}

// spmmSplit is where kernel threads may split the dense x CSR product's
// columns: the widest strip of its assembly forms, a row segment in eight ZMM
// registers (four 16-column YMM strips at levelAVX2). A product at most that
// wide — GNMF's factors are 64 — is one call on the calling goroutine.
const spmmSplit = 64

// MatMulTransAccWith is the dense x CSR kernel. It accumulates
// accT += t(b) x a for dense a (K x m) and CSR b (K x n): the transpose of
// t(a) x b, so GNMF's t(V) %*% X is taken straight from the untransposed
// factor block. It walks b's rows k ascending; for each, a's row k stays in
// registers while accT[j] += round(v * a[k]) is scattered to the row's stored
// (j, v) — contiguous m-wide rows, where a row-major accumulator would take a
// scatter of b's ~nnz/K entries per inner iteration. Kernel threads split the
// m columns at spmmSplit boundaries, so each element is still summed by one
// goroutine in k order. accT (n x m) must be owned by the caller, which
// transposes it once when the sum is complete.
func MatMulTransAccWith(p *parallel.Pool, accT *Dense, a *Dense, b *CSR) {
	m := a.Cols
	if a.Rows != b.Rows || accT.Rows != b.Cols || accT.Cols != m {
		panic(fmt.Sprintf("matrix: transposed matmul shape mismatch t(%dx%d) x %dx%d into t(%dx%d)",
			a.Rows, m, b.Rows, b.Cols, accT.Rows, accT.Cols))
	}
	if p == nil { // no closure for the serial path: the call allocates nothing
		spmmTCols(accT, a, b, 0, m)
		return
	}
	p.For((m+spmmSplit-1)/spmmSplit, 1, func(lo, hi int) {
		spmmTCols(accT, a, b, lo*spmmSplit, min(hi*spmmSplit, m))
	})
}

// spmmTCols is MatMulTransAccWith over columns [lo, hi): one call of the
// assembly kernel, which walks b's rows itself — spmmTAVX512 holds a's row
// 64 columns at a time, spmmTAVX 16 — or the same arithmetic in portable
// loops, 4 columns of a's row held at a time.
func spmmTCols(accT, a *Dense, b *CSR, lo, hi int) {
	if lo == hi {
		return
	}
	m := a.Cols
	if simdLevel >= levelAVX2 && len(b.Col) > 0 {
		countKernel(kernelSpMM)
		if simdLevel >= levelAVX512 {
			spmmTAVX512(&b.RowPtr[0], &b.Col[0], &b.Val[0], b.Rows, &a.Data[lo], &accT.Data[lo], m, hi-lo)
		} else {
			spmmTAVX(&b.RowPtr[0], &b.Col[0], &b.Val[0], b.Rows, &a.Data[lo], &accT.Data[lo], m, hi-lo)
		}
		return
	}
	for k := 0; k < b.Rows; k++ {
		cols, vals := b.RowNNZ(k)
		if len(cols) == 0 {
			continue
		}
		arow := a.Data[k*m+lo : k*m+hi]
		c := 0
		for ; c+4 <= len(arow); c += 4 {
			a0, a1, a2, a3 := arow[c], arow[c+1], arow[c+2], arow[c+3]
			for q, j := range cols {
				v, o := vals[q], accT.Data[j*m+lo+c:j*m+lo+c+4]
				o[0] += float64(v * a0)
				o[1] += float64(v * a1)
				o[2] += float64(v * a2)
				o[3] += float64(v * a3)
			}
		}
		for ; c < len(arow); c++ {
			for q, j := range cols {
				accT.Data[j*m+lo+c] += float64(vals[q] * arow[c])
			}
		}
	}
}

// MatMulTNAccWith is MatMulAccWith for dense blocks with the left operand
// given transposed: acc += t(at) x b for at (K x m) and b (K x n). The kernel
// reads at where it lies, through swapped strides, so a product under a
// t(A) node never builds t(A)'s block; element for element it is the
// arithmetic of MatMulAccWith on the built transpose, and gives its bits.
// acc must be a buffer the caller owns; MatMulTNInto starts a sum.
func MatMulTNAccWith(p *parallel.Pool, acc *Dense, at, b *Dense) *Dense {
	return matMulTN(p, acc, at, b, false)
}

// MatMulTNInto is MatMulInto with the left operand given transposed: out =
// t(at) x b, out's values overwritten.
func MatMulTNInto(p *parallel.Pool, out *Dense, at, b *Dense) *Dense {
	return matMulTN(p, out, at, b, true)
}

// matMulTN is MatMulTNAccWith, or with store set MatMulTNInto.
func matMulTN(p *parallel.Pool, acc *Dense, at, b *Dense, store bool) *Dense {
	if at.Rows != b.Rows || acc.Rows != at.Cols || acc.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: matmul shape mismatch t(%dx%d) x %dx%d into %dx%d", at.Rows, at.Cols, b.Rows, b.Cols, acc.Rows, acc.Cols))
	}
	if at.Rows == 0 && store { // an empty sum: no kernel writes anything
		clear(acc.Data)
	}
	matMulDD(p, acc, strided{at.Data, 1, at.Cols}, b, store)
	return acc
}

// strided is the left operand as the dense kernel reads it: element (i, k) is
// data[i*rs+k*ks] — a row-major block (rs its column count, ks 1) or the
// transpose of one (rs 1, ks the stored block's column count).
type strided struct {
	data   []float64
	rs, ks int
}

// matMulDD is the dense x dense kernel, acc += a x b, row panels split across
// p's kernel threads; store overwrites acc with a x b instead (MatMulInto).
func matMulDD(p *parallel.Pool, acc *Dense, a strided, b *Dense, store bool) {
	p.For(acc.Rows, tileI, func(lo, hi int) { matMulDDPanel(a, b, acc, lo, hi, store) })
}

// panelPool recycles the row-panel scratch of matMulDDPanel.
var panelPool sync.Pool

// matMulDDPanel accumulates rows [rLo, rHi) of a x b into acc with the
// cache-blocked, register-tiled dense kernel, walking the fixed i/k/j tile
// grid. A product spanning several k-tiles is summed first (k-tiles
// ascending) and added to acc once: in a scratch row panel, or in place where
// acc's rows are to be overwritten (store) or are still zero, which a scan
// finds. The sum's first k-tile is stored, not added — into the panel, whose
// old values are never read, or into acc's rows in place — and the others
// are added onto it.
func matMulDDPanel(a strided, b, acc *Dense, rLo, rHi int, store bool) {
	K, N := b.Rows, b.Cols
	var panel *[]float64
	for it := rLo; it < rHi; it += tileI {
		iMax := min(it+tileI, rHi)
		rows := acc.Data[it*N : iMax*N]
		out, first := rows, store // first: the first k-tile stores its sums
		if !store && K > tileK {
			first = true
			if !allZero(rows) {
				if panel == nil {
					panel, _ = panelPool.Get().(*[]float64)
				}
				if panel == nil || cap(*panel) < tileI*N {
					s := make([]float64, tileI*N)
					panel = &s
				}
				out = (*panel)[:tileI*N]
			}
		}
		for kt := 0; kt < K; kt += tileK {
			kMax := min(kt+tileK, K)
			for jt := 0; jt < N; jt += tileJ {
				mulTile(a, b, out[jt:], N, it, iMax, kt, kMax, jt, min(jt+tileJ, N), first && kt == 0)
			}
		}
		if &out[0] != &rows[0] {
			for x, v := range out[:len(rows)] {
				rows[x] += v
			}
		}
	}
	if panel != nil {
		panelPool.Put(panel)
	}
}

// allZero reports whether every value of s is +0: a -0 is not, since adding
// a sum to it is not filling in the sum.
func allZero(s []float64) bool {
	for _, v := range s {
		if math.Float64bits(v) != 0 {
			return false
		}
	}
	return true
}

// mulTile multiplies one (i,k)x(k,j) tile pair into out, whose element
// (iLo, jLo) is out[0] and whose row stride is ldo. Full-width strips go to
// the widest micro-kernel the machine has — 8x16 at levelAVX512, whose row
// and column remainders are tiles for the next one; 4x8 at levelAVX2; else
// the portable 4x4 — and what is narrower than that to an edge loop. The
// arithmetic is defined once: every output element has one accumulator, which
// takes acc = fma(a, b, acc) — one rounding per step — over the tile's k
// range, k ascending, and is added into out once per tile as out + (acc + 0):
// the +0 turns a -0 sum into +0, so an out that holds -0 is left as adding
// product's block, whose elements start at +0, would leave it. With store
// set the tile's sums are stored as acc + 0 instead, out's old values unread:
// the bits of adding onto +0. Strips of either assembly form, portable strips
// and edge rows therefore match bitwise, on every machine: math.FMA is the
// hardware instruction on amd64 with FMA3 and on arm64, and exact (and slow)
// software elsewhere.
func mulTile(a strided, b *Dense, out []float64, ldo, iLo, iMax, kLo, kMax, jLo, jMax int, store bool) {
	if kLo >= kMax {
		return
	}
	switch {
	case simdLevel >= levelAVX512:
		countKernel(kernelGEMM)
		N := b.Cols
		kn, ldaB, ldkB, ldbB, ldoB, st := uintptr(kMax-kLo), uintptr(a.rs*8), uintptr(a.ks*8), uintptr(N*8), uintptr(ldo*8), storeArg(store)
		i8, j16 := iLo+(iMax-iLo)&^7, jLo+(jMax-jLo)&^15
		for i := iLo; i < i8; i += 8 {
			ap, orow := &a.data[i*a.rs+kLo*a.ks], out[(i-iLo)*ldo:]
			for j := jLo; j < j16; j += 16 {
				microAVX512x8x16(ap, &b.Data[kLo*N+j], &orow[j-jLo], kn, ldaB, ldkB, ldbB, ldoB, st)
			}
		}
		if i8 > iLo && j16 < jMax {
			mulTileAVX2(a, b, out[j16-jLo:], ldo, iLo, i8, kLo, kMax, j16, jMax, store)
		}
		if i8 < iMax {
			mulTileAVX2(a, b, out[(i8-iLo)*ldo:], ldo, i8, iMax, kLo, kMax, jLo, jMax, store)
		}
	case simdLevel >= levelAVX2:
		countKernel(kernelGEMM)
		mulTileAVX2(a, b, out, ldo, iLo, iMax, kLo, kMax, jLo, jMax, store)
	default:
		i := iLo
		for ; i+4 <= iMax; i += 4 {
			j := jLo
			for ; j+4 <= jMax; j += 4 {
				micro4x4(a, b, out[(i-iLo)*ldo+j-jLo:], ldo, i, j, kLo, kMax, store)
			}
			if j < jMax {
				edgeTile(a, b, out[(i-iLo)*ldo+j-jLo:], ldo, i, i+4, kLo, kMax, j, jMax, store)
			}
		}
		if i < iMax {
			edgeTile(a, b, out[(i-iLo)*ldo:], ldo, i, iMax, kLo, kMax, jLo, jMax, store)
		}
	}
}

// storeArg is the assembly micro-kernels' store argument.
func storeArg(store bool) uintptr {
	if store {
		return 1
	}
	return 0
}

// mulTileAVX2 is mulTile with the 4x8 micro-kernel, on a whole tile or on
// what the 8x16 strips left of one.
func mulTileAVX2(a strided, b *Dense, out []float64, ldo, iLo, iMax, kLo, kMax, jLo, jMax int, store bool) {
	N := b.Cols
	kn, ldaB, ldkB, ldbB, ldoB, st := uintptr(kMax-kLo), uintptr(a.rs*8), uintptr(a.ks*8), uintptr(N*8), uintptr(ldo*8), storeArg(store)
	i := iLo
	for ; i+4 <= iMax; i += 4 {
		j := jLo
		for ; j+8 <= jMax; j += 8 {
			microAVX4x8(&a.data[i*a.rs+kLo*a.ks], &b.Data[kLo*N+j], &out[(i-iLo)*ldo+j-jLo], kn, ldaB, ldkB, ldbB, ldoB, st)
		}
		if j < jMax {
			edgeTile(a, b, out[(i-iLo)*ldo+j-jLo:], ldo, i, i+4, kLo, kMax, j, jMax, store)
		}
	}
	if i < iMax {
		edgeTile(a, b, out[(i-iLo)*ldo:], ldo, i, iMax, kLo, kMax, jLo, jMax, store)
	}
}

// micro4x4 is the portable twin of the assembly micro-kernels: it accumulates
// the 4x4 output block at (i0, j0) over k in [kLo, kMax) in sixteen scalar
// accumulators the compiler keeps in registers, touching out (whose out[0] is
// element (i0, j0), row stride ldo) only once per tile, as out + (s + 0), or
// with store set as s + 0.
func micro4x4(a strided, b *Dense, out []float64, ldo, i0, j0, kLo, kMax int, store bool) {
	N := b.Cols
	ad, rs := a.data, a.rs
	ai := i0*rs + kLo*a.ks
	bd := b.Data
	bi := kLo*N + j0
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	for k := kLo; k < kMax; k++ {
		b0, b1, b2, b3 := bd[bi], bd[bi+1], bd[bi+2], bd[bi+3]
		bi += N
		av := ad[ai]
		c00 = math.FMA(av, b0, c00)
		c01 = math.FMA(av, b1, c01)
		c02 = math.FMA(av, b2, c02)
		c03 = math.FMA(av, b3, c03)
		av = ad[ai+rs]
		c10 = math.FMA(av, b0, c10)
		c11 = math.FMA(av, b1, c11)
		c12 = math.FMA(av, b2, c12)
		c13 = math.FMA(av, b3, c13)
		av = ad[ai+2*rs]
		c20 = math.FMA(av, b0, c20)
		c21 = math.FMA(av, b1, c21)
		c22 = math.FMA(av, b2, c22)
		c23 = math.FMA(av, b3, c23)
		av = ad[ai+3*rs]
		c30 = math.FMA(av, b0, c30)
		c31 = math.FMA(av, b1, c31)
		c32 = math.FMA(av, b2, c32)
		c33 = math.FMA(av, b3, c33)
		ai += a.ks
	}
	put4(out, store, c00, c01, c02, c03)
	put4(out[ldo:], store, c10, c11, c12, c13)
	put4(out[2*ldo:], store, c20, c21, c22, c23)
	put4(out[3*ldo:], store, c30, c31, c32, c33)
}

// put4 adds s + 0 into each of o's first four values, or with store set
// stores it.
func put4(o []float64, store bool, s0, s1, s2, s3 float64) {
	o = o[:4]
	if store {
		o[0], o[1], o[2], o[3] = s0+0, s1+0, s2+0, s3+0
		return
	}
	o[0] += s0 + 0
	o[1] += s1 + 0
	o[2] += s2 + 0
	o[3] += s3 + 0
}

// edgeTile handles tile remainders narrower than the micro-kernel,
// accumulating each output element over the tile's k range in a scalar
// before the single += (with store set, =) — mulTile's arithmetic. out[0] is
// element (iLo, jLo), row stride ldo.
func edgeTile(a strided, b *Dense, out []float64, ldo, iLo, iMax, kLo, kMax, jLo, jMax int, store bool) {
	countKernel(kernelGEMMEdge)
	N := b.Cols
	for i := iLo; i < iMax; i++ {
		orow := out[(i-iLo)*ldo : (i-iLo)*ldo+jMax-jLo]
		for j := jLo; j < jMax; j++ {
			var s float64
			ai := i*a.rs + kLo*a.ks
			for k := kLo; k < kMax; k++ {
				s = math.FMA(a.data[ai], b.Data[k*N+j], s)
				ai += a.ks
			}
			if store {
				orow[j-jLo] = s + 0
			} else {
				orow[j-jLo] += s + 0
			}
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

// MatMulFlops returns the flop count charged for a x b, what the kernels
// execute: 2*nnz(a)*cols(b) for a sparse left operand, 2*rows*nnz(b) for a
// dense one times a sparse right operand, otherwise 2*rows*inner*cols.
func MatMulFlops(a, b Mat) int64 {
	ar, ak := a.Dims()
	_, bc := b.Dims()
	switch {
	case a.IsSparse():
		return 2 * int64(a.NNZ()) * int64(bc)
	case b.IsSparse():
		return 2 * int64(ar) * int64(b.NNZ())
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
// t(b) transposes it once per call, as MaskedMatMulWith does. It is
// MaskedMatMulGroupAccWith on a group of one block. acc (len nnz(mask)) must
// be owned by the caller.
func MaskedMatMulAccWith(p *parallel.Pool, mask *CSR, acc []float64, a, bt Mat) {
	MaskedMatMulGroupAccWith(p, a, []MaskedTerm{{Mask: mask, Acc: acc, Bt: bt}})
}

// MaskedTerm is one output block of a masked product: the block's mask, its
// values and the right operand's block, transposed.
type MaskedTerm struct {
	Mask *CSR      // the block's pattern, with the left operand's rows
	Acc  []float64 // one value per stored position of Mask, owned by the caller
	Bt   Mat       // the right operand's block transposed: Mask.Cols x inner
}

// superTileBytes is the share of a core's L2 that the right operands of one
// super-tile fill: half of the 2 MiB L2 of the benchmark's machine, so the
// group's blocks stay there while the caller walks the block rows under them
// and the left operand's block and the masks stream past.
const superTileBytes = 1 << 20

// sddmmMaxTerms is the most terms one call of the group kernel takes, and so
// the widest super-tile.
const sddmmMaxTerms = 16

// SuperTileCols returns how many column blocks of one block row a masked
// product groups (MaskedMatMulGroupAccWith): as many right-operand blocks of
// cols x k values as fill superTileBytes, at least one and at most
// sddmmMaxTerms — 8 at the benchmark's 256 x 64 factor blocks.
func SuperTileCols(cols, k int) int {
	return min(sddmmMaxTerms, max(1, superTileBytes/(8*max(1, cols*k))))
}

// MaskedMatMulGroupAccWith is MaskedMatMulAccWith on a super-tile: terms
// that share the left operand a — blocks of one block row, a the left
// operand's block of that row. For every term and every stored (i,j) of its
// mask at position q, Acc[q] += a[i,:] . Bt[j,:]. The mask rows are split
// across p's kernel threads, and between dense operands each row range is
// one walk (sddmmGroup): row i of every term in turn, so a's row i serves
// the positions of all of them before the walk moves on. Each position is
// written by exactly one goroutine with dot's arithmetic, so the results are
// bit-identical at every thread count and grouping.
func MaskedMatMulGroupAccWith(p *parallel.Pool, a Mat, terms []MaskedTerm) {
	ar, ak := a.Dims()
	for _, t := range terms {
		if bc, bk := t.Bt.Dims(); ak != bk || t.Mask.Rows != ar || t.Mask.Cols != bc || len(t.Acc) != len(t.Mask.Col) {
			panic(fmt.Sprintf("matrix: masked matmul shape mismatch mask %dx%d (%d values), a %dx%d, t(b) %dx%d",
				t.Mask.Rows, t.Mask.Cols, len(t.Acc), ar, ak, bc, bk))
		}
	}
	da, denseA := a.(*Dense)
	p.For(ar, rowGrain, func(rLo, rHi int) {
		if denseA {
			sddmmGroup(terms, rLo, rHi, da)
		}
		for _, t := range terms {
			if _, denseB := t.Bt.(*Dense); denseA && denseB {
				continue
			}
			for i := rLo; i < rHi; i++ {
				for q := t.Mask.RowPtr[i]; q < t.Mask.RowPtr[i+1]; q++ {
					var s float64
					for k := 0; k < ak; k++ {
						s += a.At(i, k) * t.Bt.At(t.Mask.Col[q], k)
					}
					t.Acc[q] += s
				}
			}
		}
	})
}

// sddmmTerm is a dense term on raw storage, as sddmmGroupAVX512 reads it.
type sddmmTerm struct {
	rowPtr, col *int
	bt, acc     *float64
	nnz         int
}

// sddmmGroup is the dense/dense SDDMM over mask rows [rLo, rHi) of the terms
// whose right operand is dense: row by row, each term's positions of the row
// in turn. At levelAVX512 that is one call of the assembly kernel per
// sddmmMaxTerms terms, which walks the patterns itself and runs four dots at
// once; below it, one dot per stored position in the same order — the same
// arithmetic.
func sddmmGroup(terms []MaskedTerm, rLo, rHi int, a *Dense) {
	if simdLevel >= levelAVX512 && len(a.Data) > 0 {
		var raw [sddmmMaxTerms]sddmmTerm
		n := 0
		for _, t := range terms {
			bt, ok := t.Bt.(*Dense)
			if !ok || len(t.Acc) == 0 {
				continue
			}
			raw[n] = sddmmTerm{&t.Mask.RowPtr[0], &t.Mask.Col[0], &bt.Data[0], &t.Acc[0], len(t.Acc)}
			if n++; n == len(raw) {
				countKernel(kernelSDDMM)
				sddmmGroupAVX512(&raw[0], n, rLo, rHi, &a.Data[0], a.Cols)
				n = 0
			}
		}
		if n > 0 {
			countKernel(kernelSDDMM)
			sddmmGroupAVX512(&raw[0], n, rLo, rHi, &a.Data[0], a.Cols)
		}
		return
	}
	for i := rLo; i < rHi; i++ {
		arow := a.Row(i)
		for _, t := range terms {
			bt, ok := t.Bt.(*Dense)
			if !ok {
				continue
			}
			for q := t.Mask.RowPtr[i]; q < t.Mask.RowPtr[i+1]; q++ {
				t.Acc[q] += dot(arow, bt.Row(t.Mask.Col[q]))
			}
		}
	}
}

// dot returns x . y over len(x) elements in four interleaved partial sums
// (independent add chains keep the FP pipeline full), combined pairwise. Each
// step is one multiply, rounded, then one add — never fused, which the
// conversions state for the architectures whose compiler would — so that
// sddmmGroupAVX512, whose four accumulator lanes per dot are s0..s3, gives
// the same bits.
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

// transposeSplitCells is the fewest cells worth a kernel thread of the 8x8
// transpose kernel: it copies a 64x256 block in ~6 µs, which a split across
// two threads made ~10 µs on the benchmark's machine; splitting lost up to
// 256x256 and gained from 500x500.
const transposeSplitCells = 1 << 16

// Transpose is TransposeWith on the serial path.
func Transpose(a Mat) Mat { return TransposeWith(nil, a) }

// TransposeFlops is what TransposeWith moves, the meter's charge for building
// a transpose: every cell of a dense block, the stored values of a CSR one.
func TransposeFlops(a Mat) int64 {
	if s, ok := a.(*CSR); ok {
		return int64(len(s.Val))
	}
	r, c := a.Dims()
	return int64(r) * int64(c)
}

// TransposeWith returns the transpose of a, preserving representation. The
// dense path copies into disjoint output rows split across p's kernel
// threads (transposeDense) — at levelAVX512 only blocks of at least
// 2*transposeSplitCells cells are split; it is a pure copy, so neither tiling
// nor parallelism can change the result. The CSR counting sort stays serial.
func TransposeWith(p *parallel.Pool, a Mat) Mat {
	switch x := a.(type) {
	case *Dense:
		return TransposeInto(p, NewDense(x.Cols, x.Rows), x)
	case *CSR:
		return transposeCSR(x)
	}
	panic("matrix: unsupported Mat implementation")
}

// TransposeInto writes t(x) into out, a block shaped as t(x) whose values
// are overwritten — one taken unzeroed from an Arena will do — and returns
// it; the copy is TransposeWith's, split the same way across p's kernel
// threads. On a nil pool it allocates nothing.
func TransposeInto(p *parallel.Pool, out, x *Dense) *Dense {
	if out.Rows != x.Cols || out.Cols != x.Rows {
		panic(fmt.Sprintf("matrix: transpose of %dx%d into %dx%d", x.Rows, x.Cols, out.Rows, out.Cols))
	}
	if p == nil { // no closure for the serial path
		transposeDense(x, out, 0, x.Cols)
		return out
	}
	grain := rowGrain
	if simdLevel >= levelAVX512 {
		grain = max(grain, transposeSplitCells/max(x.Rows, 1))
	}
	p.For(x.Cols, grain, func(lo, hi int) { transposeDense(x, out, lo, hi) })
	return out
}

// transposeDense writes rows [lo, hi) of out = t(x): at levelAVX512 the
// interior whose rows and columns are whole multiples of 8 in one call of
// transposeAVX512, 8x8 tiles in registers, and the ragged edges — x's last
// Rows%8 rows and the last (hi-lo)%8 output rows — through transposeTiles,
// which is the whole range below that level.
func transposeDense(x, out *Dense, lo, hi int) {
	r8, c8 := x.Rows&^7, (hi-lo)&^7
	if simdLevel >= levelAVX512 && r8 > 0 && c8 > 0 {
		countKernel(kernelTranspose)
		transposeAVX512(&x.Data[lo], x.Cols, &out.Data[lo*x.Rows], x.Rows, r8, c8)
		transposeTiles(x, out, r8, x.Rows, lo, lo+c8)
		lo += c8
	}
	transposeTiles(x, out, 0, x.Rows, lo, hi)
}

// transposeTiles copies x's rows [iLo, iHi) of columns [jLo, jHi) into out =
// t(x) in transposeTile-square tiles, so that both the reads and the writes of
// a tile stay within a few cache lines.
func transposeTiles(x, out *Dense, iLo, iHi, jLo, jHi int) {
	for i0 := iLo; i0 < iHi; i0 += transposeTile {
		iMax := min(i0+transposeTile, iHi)
		for j0 := jLo; j0 < jHi; j0 += transposeTile {
			jMax := min(j0+transposeTile, jHi)
			for i := i0; i < iMax; i++ {
				o := out.Data[j0*x.Rows+i:]
				for dj, v := range x.Data[i*x.Cols+j0 : i*x.Cols+jMax] {
					o[dj*x.Rows] = v
				}
			}
		}
	}
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
