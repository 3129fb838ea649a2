// Package matrix provides the local linear-algebra kernels used by the
// FuseME engine: dense (row-major) and CSR sparse matrices, element-wise
// operations, matrix multiplication (including the masked, sparsity-exploiting
// variant used by outer fusion), transposition and aggregations.
//
// It plays the role that Breeze plays in the paper's Scala implementation:
// everything a single task computes locally on its blocks goes through this
// package. All kernels are deterministic and allocation-conscious. Dense
// matmul is cache-blocked and register-tiled; the multiplication and
// transpose kernels optionally fan out across a bounded parallel.Pool via
// their *With variants (MatMulWith, MatMulAccWith, MaskedMatMulAccWith,
// MaskedMatMulGroupAccWith, TransposeWith), which split disjoint output ranges so results are
// bit-identical at every thread count. The plain-named kernels (MatMul,
// MaskedMatMul, Transpose) are the same code on a nil pool. Task-level
// parallelism still lives in the cluster layer; the pool only adds intra-task
// threads, and its size is chosen so kernel threads x worker slots stays at
// or below GOMAXPROCS (see internal/parallel).
//
// One arithmetic per kernel. The product loops have an assembly form on
// amd64 (matmul_amd64.s) and a portable Go twin that computes the same bits,
// selected by simdLevel, one ordered value — portable, then AVX2 (AVX, FMA3,
// AVX2 and OS YMM state), then AVX-512F with OS ZMM state; nothing else
// dispatches. The dense GEMM, the two sparse x dense row kernels, the dense
// transpose (transposeAVX512, 8x8 tiles in registers; the tiled loop of
// transposeTiles below it) and (*Dense).NNZ's count have a form at AVX-512.
// Dense GEMM is
// fused multiply-add: every output element has one accumulator that takes
// acc = fma(a, b, acc), k ascending, and is added to the output once per
// k-tile as out + (acc + 0), so a -0 sum leaves a -0 output as adding the
// product would (microAVX512x8x16 and microAVX4x8; micro4x4 and edgeTile through
// math.FMA, which is the hardware instruction on amd64 with FMA3 and on
// arm64, and exact software on an older x86 — identical and slow); its left
// operand is read through a row and a k stride, so t(A) x B (MatMulTNAccWith)
// is the same kernels on A's block as it lies. The dense
// SDDMM (sddmmGroupAVX512, at AVX-512 only; dot) is four interleaved partial
// sums, each step a rounded multiply then an add, combined pairwise as
// (s0+s1)+(s2+s3); one call covers a super-tile — mask blocks of one block
// row that share the left block (MaskedMatMulGroupAccWith) — walking row i
// of each in turn and running four dots at once; the CSR x dense
// and dense x CSR row kernels (spmmRowsAVX512 and spmmRowsAVX, spmmTAVX512
// and spmmTAVX; spmmRows, spmmTCols) are a rounded multiply then an add per
// element, summed from +0 and added once, and summed in place k ascending,
// respectively; each call covers a row range, or a whole CSR block, and the
// AVX-512 forms walk a row's non-zeros once per 64 columns. NaN payloads aside, their results
// are therefore equal bit for bit between assembly and portable forms, strips
// and edges, thread counts and machines. log, exp and sigmoid are what the
// machine's math.Log and math.Exp are; from the AVX2 level up a strip of them
// runs an assembly kernel (unary_amd64.s: logAVX, expAVX, sigmoidAVX, four
// values per step) in the recurrences math runs on amd64 with FMA3, so with
// the same bits, and without it calls math per value (withKernel in unary.go
// has the fast ranges and who finishes a value outside them).
//
// Ownership: a block is immutable once it has been published — bound as an
// input, emitted by a task, memoised or pinned. No kernel writes into
// an operand; the accumulate kernels (MatMulAccWith, MatMulTNAccWith, MatMulTransAccWith,
// MaskedMatMulAccWith, MaskedMatMulGroupAccWith) and the storing ones
// (MatMulInto, MatMulTNInto, TransposeInto) write only into the blocks the
// caller passes, which must be a buffer that caller allocated and has not
// published yet. A storing kernel never reads the values it overwrites, so a
// block taken unzeroed from an Arena will do: the products store the first
// term of each element's sum as s + 0, the bits of adding s onto +0.
// Because nothing mutates a published block, ToDense and ToCSR return their
// argument when it already has the requested representation, and a result
// may share a pattern (RowPtr/Col) with the operand it was sampled from.
// Clone is for callers that need a private copy to write into.
//
// The element-wise kernels in ops.go (Binary, BinaryScalar, Apply) evaluate
// one operator into one fresh block. They are the reference semantics —
// internal/ref is built on them — and one-step instances of Chain, which the
// executor (internal/exec) uses to compile a whole run of operators without
// the intermediates. A chain's expression has two forms that agree bit for
// bit: strips — one call per operator per row, tight loops over the row
// (strip.go, at AVX-512 width for + - * /; a registered unary function
// brings its own strip form, UnaryFn) —
// write a dense result over row-major operands; cells — one call per operator
// per cell — serve the pattern walks of sparse steps and a dense result with
// a CSR operand. The masked (outer-fusion) path is a MaskedChain: in-place
// passes over the values buffer of the driver's pattern, one loop per
// operator. A chain given an Owned accumulator stores into
// it, so the block being written is an operand: every row is evaluated in
// scratch up to its last operator, whose loop stores each value after
// reading that value's operands (see Owned).
package matrix

import (
	"fmt"
	"math"
)

// Mat is a two-dimensional matrix of float64 values. Implementations are
// *Dense and *CSR. A nil Mat is treated by callers as an all-zero block.
type Mat interface {
	// Dims returns the number of rows and columns.
	Dims() (rows, cols int)
	// At returns the element at row i, column j. Indices must be in range.
	At(i, j int) float64
	// NNZ returns the number of explicitly stored non-zero elements.
	NNZ() int
	// IsSparse reports whether the receiver uses a sparse representation.
	IsSparse() bool
	// SizeBytes returns the in-memory footprint of the stored data in bytes.
	// It is the quantity metered by the simulated cluster when a block moves
	// across the (simulated) network.
	SizeBytes() int64
	// Clone returns a deep copy.
	Clone() Mat
}

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, Data[i*Cols+j] == element (i,j)
}

// NewDense returns a zero-initialised dense matrix of the given shape.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewDenseData wraps data (not copied) as a rows x cols dense matrix.
func NewDenseData(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("matrix: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: data}
}

// Dims implements Mat.
func (d *Dense) Dims() (int, int) { return d.Rows, d.Cols }

// At implements Mat.
func (d *Dense) At(i, j int) float64 { return d.Data[i*d.Cols+j] }

// Set assigns the element at row i, column j.
func (d *Dense) Set(i, j int, v float64) { d.Data[i*d.Cols+j] = v }

// NNZ implements Mat; it counts the non-zero entries by scanning, eight at a
// time on an AVX-512 machine (nnzAVX512). NaN counts and -0 does not, as
// v != 0 has it, on every path.
func (d *Dense) NNZ() int {
	countScan(d)
	x, n := d.Data, 0
	if n8 := len(x) &^ 7; simdLevel >= levelAVX512 && n8 > 0 {
		n, x = nnzAVX512(&x[0], n8), x[n8:]
	}
	return n + nnzPortable(x)
}

// nnzPortable is the portable twin of nnzAVX512: the values of x unequal to
// zero.
func nnzPortable(x []float64) int {
	n := 0
	for _, v := range x {
		if v != 0 {
			n++
		}
	}
	return n
}

// IsSparse implements Mat.
func (d *Dense) IsSparse() bool { return false }

// SizeBytes implements Mat.
func (d *Dense) SizeBytes() int64 { return int64(len(d.Data)) * 8 }

// Clone implements Mat.
func (d *Dense) Clone() Mat {
	data := make([]float64, len(d.Data))
	copy(data, d.Data)
	return &Dense{Rows: d.Rows, Cols: d.Cols, Data: data}
}

// Row returns a view of row i (the backing slice, not a copy).
func (d *Dense) Row(i int) []float64 { return d.Data[i*d.Cols : (i+1)*d.Cols] }

// CSR is a compressed-sparse-row matrix. Column indices within a row are
// strictly increasing. Explicit zeros are permitted but generators never
// produce them.
type CSR struct {
	Rows, Cols int
	RowPtr     []int // len == Rows+1
	Col        []int // len == NNZ
	Val        []float64
}

// NewCSR returns an empty (all-zero) CSR matrix of the given shape.
func NewCSR(rows, cols int) *CSR {
	return &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
}

// Dims implements Mat.
func (s *CSR) Dims() (int, int) { return s.Rows, s.Cols }

// At implements Mat using a binary search within the row.
func (s *CSR) At(i, j int) float64 {
	lo, hi := s.RowPtr[i], s.RowPtr[i+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case s.Col[mid] == j:
			return s.Val[mid]
		case s.Col[mid] < j:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0
}

// NNZ implements Mat.
func (s *CSR) NNZ() int { return len(s.Val) }

// IsSparse implements Mat.
func (s *CSR) IsSparse() bool { return true }

// SizeBytes implements Mat. Each stored element carries a value (8 bytes)
// and a column index (8 bytes) plus the row-pointer array.
func (s *CSR) SizeBytes() int64 {
	return int64(len(s.Val))*16 + int64(len(s.RowPtr))*8
}

// Clone implements Mat.
func (s *CSR) Clone() Mat {
	c := &CSR{Rows: s.Rows, Cols: s.Cols,
		RowPtr: make([]int, len(s.RowPtr)),
		Col:    make([]int, len(s.Col)),
		Val:    make([]float64, len(s.Val)),
	}
	copy(c.RowPtr, s.RowPtr)
	copy(c.Col, s.Col)
	copy(c.Val, s.Val)
	return c
}

// WithValues returns a block with s's pattern — shared, not copied: blocks
// are immutable — and vals as its stored values, one per position of s.
func (s *CSR) WithValues(vals []float64) *CSR {
	return &CSR{Rows: s.Rows, Cols: s.Cols, RowPtr: s.RowPtr, Col: s.Col, Val: vals}
}

// RowNNZ returns the column indices and values of row i as views.
func (s *CSR) RowNNZ(i int) (cols []int, vals []float64) {
	lo, hi := s.RowPtr[i], s.RowPtr[i+1]
	return s.Col[lo:hi], s.Val[lo:hi]
}

// Density returns NNZ / (rows*cols), or 0 for an empty shape.
func Density(m Mat) float64 {
	r, c := m.Dims()
	if r == 0 || c == 0 {
		return 0
	}
	return float64(m.NNZ()) / (float64(r) * float64(c))
}

// ToDense returns m as a dense matrix: m itself when it is already dense
// (blocks are immutable, see the package comment), a conversion otherwise.
func ToDense(m Mat) *Dense {
	if d, ok := m.(*Dense); ok {
		return d
	}
	s := m.(*CSR)
	d := NewDense(s.Rows, s.Cols)
	for i := 0; i < s.Rows; i++ {
		cols, vals := s.RowNNZ(i)
		row := d.Row(i)
		for p, j := range cols {
			row[j] = vals[p]
		}
	}
	return d
}

// ToCSR returns m in CSR form: m itself when it is already CSR, otherwise a
// conversion that drops zeros.
func ToCSR(m Mat) *CSR {
	if s, ok := m.(*CSR); ok {
		return s
	}
	d := m.(*Dense)
	out := NewCSR(d.Rows, d.Cols)
	for i := 0; i < d.Rows; i++ {
		row := d.Row(i)
		for j, v := range row {
			if v != 0 {
				out.Col = append(out.Col, j)
				out.Val = append(out.Val, v)
			}
		}
		out.RowPtr[i+1] = len(out.Val)
	}
	return out
}

// MaybeCompress returns a CSR copy of m when its density is below threshold
// and m is dense; otherwise it returns m unchanged. It is used by kernels
// that produce dense accumulators for logically sparse results.
func MaybeCompress(m Mat, threshold float64) Mat {
	d, ok := m.(*Dense)
	if !ok {
		return m
	}
	if Density(d) < threshold {
		return ToCSR(d)
	}
	return m
}

// Equal reports whether a and b have the same shape and identical elements.
func Equal(a, b Mat) bool { return EqualApprox(a, b, 0) }

// EqualApprox reports whether a and b have the same shape and elements equal
// within tol (absolute or relative, whichever is looser).
func EqualApprox(a, b Mat, tol float64) bool {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		return false
	}
	for i := 0; i < ar; i++ {
		for j := 0; j < ac; j++ {
			x, y := a.At(i, j), b.At(i, j)
			if x == y {
				continue
			}
			diff := math.Abs(x - y)
			if diff > tol && diff > tol*math.Max(math.Abs(x), math.Abs(y)) {
				return false
			}
		}
	}
	return true
}

// checkSameShape panics unless a and b share dimensions.
func checkSameShape(op string, a, b Mat) (rows, cols int) {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		panic(fmt.Sprintf("matrix: %s shape mismatch %dx%d vs %dx%d", op, ar, ac, br, bc))
	}
	return ar, ac
}
