// Package block implements blocked (tiled) matrices: a matrix is a grid of
// fixed-size square blocks, each stored dense or CSR. The block is the basic
// unit of distributed computation, communication metering and memory
// accounting, exactly as in the paper (Section 2.2; the paper's default block
// is 1000x1000, configurable here).
//
// A missing block is an all-zero block; sparse matrices therefore only store
// the blocks that carry non-zeros.
//
// Ownership: a stored block is immutable. A Matrix changes only by having a
// block replaced (SetBlock, AddInto), which restamps its content epoch; the
// contents of a block it holds, or ever held, are never written. That is
// what lets bindings, tasks, block caches and results share one block
// without copying — an operator's output may hold its input's very block —
// and what makes (node, epoch, coordinate) a sound cache key. Kernels write
// only into buffers their task allocated (see internal/matrix, internal/exec).
package block

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"fuseme/internal/matrix"
)

// epochCounter issues globally-unique, monotonically increasing content
// epochs. Every new Matrix gets a fresh epoch, and every in-place mutation
// (SetBlock, AddInto) restamps the matrix with a fresh one. Because epochs
// never repeat, a cache entry keyed by (node, epoch, coord) can never alias
// different content: stale entries simply stop matching.
var epochCounter atomic.Uint64

func nextEpoch() uint64 { return epochCounter.Add(1) }

// Key addresses a block by its (block-row, block-col) grid position.
type Key struct {
	Row, Col int
}

// String formats the key as "(r,c)".
func (k Key) String() string { return fmt.Sprintf("(%d,%d)", k.Row, k.Col) }

// Matrix is a blocked matrix.
type Matrix struct {
	Rows, Cols int // element-level dimensions
	BlockSize  int
	blocks     map[Key]matrix.Mat
	epoch      uint64       // content version; see epochCounter
	nnz        atomic.Int64 // NNZ()+1 once counted; 0 until then and after restamp
}

// New returns an empty (all-zero) blocked matrix.
func New(rows, cols, blockSize int) *Matrix {
	if rows < 0 || cols < 0 || blockSize <= 0 {
		panic(fmt.Sprintf("block: invalid shape %dx%d bs=%d", rows, cols, blockSize))
	}
	return &Matrix{Rows: rows, Cols: cols, BlockSize: blockSize,
		blocks: make(map[Key]matrix.Mat), epoch: nextEpoch()}
}

// Epoch returns the matrix's content version: a globally-unique counter value
// assigned at construction and refreshed by every in-place mutation. Caches
// key block content by (node, epoch, coord), so a matrix whose epoch is
// unchanged is guaranteed to hold the same blocks it held when cached.
func (m *Matrix) Epoch() uint64 { return m.epoch }

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// BlockRows returns the number of block rows (the paper's I, J or K).
func (m *Matrix) BlockRows() int { return ceilDiv(m.Rows, m.BlockSize) }

// BlockCols returns the number of block columns.
func (m *Matrix) BlockCols() int { return ceilDiv(m.Cols, m.BlockSize) }

// BlockDims returns the element dimensions of block (bi, bj); edge blocks may
// be smaller than BlockSize.
func (m *Matrix) BlockDims(bi, bj int) (rows, cols int) {
	rows = m.BlockSize
	if (bi+1)*m.BlockSize > m.Rows {
		rows = m.Rows - bi*m.BlockSize
	}
	cols = m.BlockSize
	if (bj+1)*m.BlockSize > m.Cols {
		cols = m.Cols - bj*m.BlockSize
	}
	return rows, cols
}

// Block returns the block at grid position (bi, bj), or nil when the block is
// all-zero.
func (m *Matrix) Block(bi, bj int) matrix.Mat { return m.blocks[Key{bi, bj}] }

// SetBlock stores blk at grid position (bi, bj) after validating its shape.
// A nil blk deletes the block (all-zero).
func (m *Matrix) SetBlock(bi, bj int, blk matrix.Mat) {
	if bi < 0 || bj < 0 || bi >= m.BlockRows() || bj >= m.BlockCols() {
		panic(fmt.Sprintf("block: key (%d,%d) outside %dx%d grid", bi, bj, m.BlockRows(), m.BlockCols()))
	}
	if blk == nil {
		delete(m.blocks, Key{bi, bj})
		m.restamp()
		return
	}
	wr, wc := m.BlockDims(bi, bj)
	br, bc := blk.Dims()
	if br != wr || bc != wc {
		panic(fmt.Sprintf("block: block (%d,%d) has shape %dx%d, want %dx%d", bi, bj, br, bc, wr, wc))
	}
	m.blocks[Key{bi, bj}] = blk
	m.restamp()
}

// restamp marks a change of the block map: a fresh content epoch, and the
// non-zero count is no longer known.
func (m *Matrix) restamp() {
	m.epoch = nextEpoch()
	m.nnz.Store(0)
}

// NumStoredBlocks returns the number of explicitly stored (non-zero) blocks.
func (m *Matrix) NumStoredBlocks() int { return len(m.blocks) }

// Keys returns the stored block keys in row-major order.
func (m *Matrix) Keys() []Key {
	ks := make([]Key, 0, len(m.blocks))
	for k := range m.blocks {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(a, b int) bool {
		if ks[a].Row != ks[b].Row {
			return ks[a].Row < ks[b].Row
		}
		return ks[a].Col < ks[b].Col
	})
	return ks
}

// ForEach calls fn for every stored block in row-major order.
func (m *Matrix) ForEach(fn func(k Key, blk matrix.Mat)) {
	for _, k := range m.Keys() {
		fn(k, m.blocks[k])
	}
}

// At returns the element at (i, j), resolving through the block grid.
func (m *Matrix) At(i, j int) float64 {
	blk := m.Block(i/m.BlockSize, j/m.BlockSize)
	if blk == nil {
		return 0
	}
	return blk.At(i%m.BlockSize, j%m.BlockSize)
}

// NNZ returns the total number of stored non-zeros across blocks. Blocks are
// immutable, so the count is taken once per content epoch — a session asks
// for the density of every bound input on every query — and concurrent
// readers of one matrix may both take it: they store the same number.
func (m *Matrix) NNZ() int {
	if n := m.nnz.Load(); n > 0 {
		return int(n - 1)
	}
	n := 0
	for _, b := range m.blocks {
		n += b.NNZ()
	}
	m.nnz.Store(int64(n) + 1)
	return n
}

// SizeBytes returns the total in-memory footprint of the stored blocks.
func (m *Matrix) SizeBytes() int64 {
	var n int64
	for _, b := range m.blocks {
		n += b.SizeBytes()
	}
	return n
}

// Density returns NNZ / (Rows*Cols).
func (m *Matrix) Density() float64 {
	if m.Rows == 0 || m.Cols == 0 {
		return 0
	}
	return float64(m.NNZ()) / (float64(m.Rows) * float64(m.Cols))
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols, m.BlockSize)
	for k, b := range m.blocks {
		out.blocks[k] = b.Clone()
	}
	return out
}

// FromMat splits a flat matrix into blocks. Blocks whose content is entirely
// zero are not stored; blocks denser than matrix.SparseResultThreshold are
// stored dense, others CSR.
func FromMat(src matrix.Mat, blockSize int) *Matrix {
	rows, cols := src.Dims()
	out := New(rows, cols, blockSize)
	for bi := 0; bi < out.BlockRows(); bi++ {
		for bj := 0; bj < out.BlockCols(); bj++ {
			br, bc := out.BlockDims(bi, bj)
			blk := matrix.NewDense(br, bc)
			nnz := 0
			for i := 0; i < br; i++ {
				for j := 0; j < bc; j++ {
					v := src.At(bi*blockSize+i, bj*blockSize+j)
					if v != 0 {
						nnz++
						blk.Set(i, j, v)
					}
				}
			}
			if nnz == 0 {
				continue
			}
			out.blocks[Key{bi, bj}] = matrix.MaybeCompress(blk, matrix.SparseResultThreshold)
		}
	}
	return out
}

// ToMat assembles the blocked matrix into a single flat matrix (dense when
// density warrants it, CSR otherwise). Intended for tests and small results.
func (m *Matrix) ToMat() matrix.Mat {
	out := matrix.NewDense(m.Rows, m.Cols)
	m.ForEach(func(k Key, blk matrix.Mat) {
		br, bc := blk.Dims()
		switch b := blk.(type) {
		case *matrix.Dense:
			for i := 0; i < br; i++ {
				row := b.Row(i)
				orow := out.Row(k.Row*m.BlockSize + i)
				copy(orow[k.Col*m.BlockSize:k.Col*m.BlockSize+bc], row)
			}
		case *matrix.CSR:
			for i := 0; i < br; i++ {
				cols, vals := b.RowNNZ(i)
				orow := out.Row(k.Row*m.BlockSize + i)
				for p, j := range cols {
					orow[k.Col*m.BlockSize+j] = vals[p]
				}
			}
		}
	})
	return matrix.MaybeCompress(out, matrix.SparseResultThreshold)
}

// EqualApprox reports element-wise equality of two blocked matrices within
// tol, independent of their block sizes.
func EqualApprox(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	return matrix.EqualApprox(a.ToMat(), b.ToMat(), tol)
}

// AddInto accumulates src into dst block-wise (dst += src). Shapes and block
// sizes must match. Used by the distributed aggregation stage.
func AddInto(dst, src *Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols || dst.BlockSize != src.BlockSize {
		panic("block: AddInto shape mismatch")
	}
	src.ForEach(func(k Key, blk matrix.Mat) {
		cur := dst.blocks[k]
		if cur == nil {
			dst.blocks[k] = blk.Clone()
			return
		}
		dst.blocks[k] = matrix.Binary(matrix.Add, cur, blk)
	})
	dst.restamp()
}

// RandomDense generates a blocked dense matrix with entries in [lo, hi),
// block by block (no full materialisation), deterministically from seed.
func RandomDense(rows, cols, blockSize int, lo, hi float64, seed int64) *Matrix {
	out := New(rows, cols, blockSize)
	for bi := 0; bi < out.BlockRows(); bi++ {
		for bj := 0; bj < out.BlockCols(); bj++ {
			br, bc := out.BlockDims(bi, bj)
			s := seed*1_000_003 + int64(bi)*131 + int64(bj)
			out.blocks[Key{bi, bj}] = matrix.RandomDense(br, bc, lo, hi, s)
		}
	}
	return out
}

// RandomSparse generates a blocked sparse matrix with uniformly distributed
// non-zeros at the given density, block by block, deterministically from
// seed. Blocks that come out empty are not stored.
func RandomSparse(rows, cols, blockSize int, density, lo, hi float64, seed int64) *Matrix {
	out := New(rows, cols, blockSize)
	for bi := 0; bi < out.BlockRows(); bi++ {
		for bj := 0; bj < out.BlockCols(); bj++ {
			br, bc := out.BlockDims(bi, bj)
			s := seed*1_000_003 + int64(bi)*131 + int64(bj)
			blk := matrix.RandomSparse(br, bc, density, lo, hi, s)
			if blk.NNZ() == 0 {
				continue
			}
			out.blocks[Key{bi, bj}] = blk
		}
	}
	return out
}

// Transpose returns the blocked transpose (each block transposed, grid
// positions swapped).
func Transpose(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows, m.BlockSize)
	m.ForEach(func(k Key, blk matrix.Mat) {
		out.blocks[Key{k.Col, k.Row}] = matrix.Transpose(blk)
	})
	return out
}

// RandomSparseSkewed generates a blocked sparse matrix whose row densities
// follow a power law: row i is proportional to (i+1)^-skew, normalised so
// the overall density matches. skew = 0 degenerates to uniform; skew around
// 1 resembles real rating matrices, where a few head users dominate. This is
// the workload for the sparsity-aware load-balancing extension.
func RandomSparseSkewed(rows, cols, blockSize int, density, skew, lo, hi float64, seed int64) *Matrix {
	weights := make([]float64, rows)
	var sum float64
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -skew)
		sum += weights[i]
	}
	norm := density * float64(rows) / sum
	out := New(rows, cols, blockSize)
	for bi := 0; bi < out.BlockRows(); bi++ {
		for bj := 0; bj < out.BlockCols(); bj++ {
			br, bc := out.BlockDims(bi, bj)
			rowD := make([]float64, br)
			for i := 0; i < br; i++ {
				rowD[i] = weights[bi*blockSize+i] * norm
			}
			s := seed*1_000_003 + int64(bi)*131 + int64(bj)
			blk := matrix.RandomSparseRowDensities(br, bc, rowD, lo, hi, s)
			if blk.NNZ() == 0 {
				continue
			}
			out.blocks[Key{bi, bj}] = blk
		}
	}
	return out
}
