// Package block implements blocked (tiled) matrices: a matrix is a grid of
// fixed-size square blocks, each stored dense or CSR. The block is the basic
// unit of distributed computation, communication metering and memory
// accounting, exactly as in the paper (Section 2.2; the paper's default block
// is 1000x1000, configurable here).
//
// A missing block is an all-zero block; sparse matrices therefore only store
// the blocks that carry non-zeros.
//
// Storage: a Matrix holds its grid as one row-major slice of
// BlockRows()×BlockCols() cells, a nil cell being an all-zero block, so a
// block is found by its position — Block and SetBlock index the slice, Keys
// and ForEach walk it in row-major order without sorting, and
// NumStoredBlocks is a counter. Every cell costs 16 B (one interface value)
// whether or not a block is stored there, so a grid is paid for in full when
// the matrix is made. The largest grid any test, experiment, example or
// command in this repository builds at its defaults is examples/als's
// 6000×5000 X at block 64: 94×79 = 7426 cells, 116 KiB. The repository
// benchmark's largest, nmfk_sim's 20000×20000 X at block 256, is 79×79 =
// 6241 cells, 98 KiB.
//
// Ownership: a stored block is immutable. A Matrix changes only by having a
// block replaced (SetBlock, AddInto); the contents of a block it holds, or
// ever held, are never written. That is what lets bindings, tasks and
// results share one block without copying — an operator's output may hold
// its input's very block. Kernels write only into buffers their task
// allocated (see internal/matrix, internal/exec).
//
// Counts: a Matrix keeps its non-zero total as blocks are stored, so NNZ and
// Density — asked of every bound input on every query — read a number. The
// count comes from where the block was made: a CSR block brings its own, the
// executor's result sink counts each final block once as a task stores it
// (SetCounted), FromMat counts the values it copies, RandomDense over a range
// above zero holds no zero, and Clone and Transpose carry the total over. A
// dense block stored without a count (SetBlock), or replaced, leaves the
// total to one scan on the next NNZ.
package block

import (
	"fmt"
	"math"
	"sync/atomic"

	"fuseme/internal/matrix"
)

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
	br, bc     int          // grid dimensions: BlockRows(), BlockCols()
	grid       []matrix.Mat // br×bc cells, row-major; nil = all-zero block
	stored     int          // non-nil cells of grid
	nnz        atomic.Int64 // NNZ()+1 while the total is kept; 0 when NNZ must scan
}

// New returns an empty (all-zero) blocked matrix.
func New(rows, cols, blockSize int) *Matrix {
	if rows < 0 || cols < 0 || blockSize <= 0 {
		panic(fmt.Sprintf("block: invalid shape %dx%d bs=%d", rows, cols, blockSize))
	}
	br, bc := ceilDiv(rows, blockSize), ceilDiv(cols, blockSize)
	m := &Matrix{Rows: rows, Cols: cols, BlockSize: blockSize,
		br: br, bc: bc, grid: make([]matrix.Mat, br*bc)}
	m.nnz.Store(1) // no blocks, no non-zeros
	return m
}

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// BlockRows returns the number of block rows (the paper's I, J or K).
func (m *Matrix) BlockRows() int { return m.br }

// BlockCols returns the number of block columns.
func (m *Matrix) BlockCols() int { return m.bc }

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
// all-zero or the position lies outside the grid.
func (m *Matrix) Block(bi, bj int) matrix.Mat {
	if uint(bi) >= uint(m.br) || uint(bj) >= uint(m.bc) {
		return nil
	}
	return m.grid[bi*m.bc+bj]
}

// put stores blk (nil: none), holding nnz non-zeros (-1: not known), in the
// cell of grid position (bi, bj), which must lie inside the grid, and keeps
// the stored-block count and the non-zero total. The total is dropped, for
// NNZ to scan, when either blk or the block it replaces has no known count.
func (m *Matrix) put(bi, bj int, blk matrix.Mat, nnz int) {
	cell := &m.grid[bi*m.bc+bj]
	switch {
	case *cell == nil && blk != nil:
		m.stored++
	case *cell != nil && blk == nil:
		m.stored--
	}
	if t := m.nnz.Load(); t > 0 {
		if old := count(*cell); old >= 0 && nnz >= 0 {
			m.nnz.Store(t - int64(old) + int64(nnz))
		} else {
			m.nnz.Store(0)
		}
	}
	*cell = blk
}

// count returns the non-zero count blk brings with it: none for an all-zero
// block, the stored values of a CSR block; -1 for a dense block, whose count
// takes a scan.
func count(blk matrix.Mat) int {
	switch b := blk.(type) {
	case nil:
		return 0
	case *matrix.CSR:
		return b.NNZ()
	}
	return -1
}

// CheckBlock reports why blk may not be stored at grid position (bi, bj):
// the key lies outside the grid, or the block is not shaped as the grid's
// block there. A nil blk fits any key inside the grid.
func (m *Matrix) CheckBlock(bi, bj int, blk matrix.Mat) error {
	if uint(bi) >= uint(m.br) || uint(bj) >= uint(m.bc) {
		return fmt.Errorf("block: key (%d,%d) outside %dx%d grid", bi, bj, m.br, m.bc)
	}
	if blk == nil {
		return nil
	}
	wr, wc := m.BlockDims(bi, bj)
	if br, bc := blk.Dims(); br != wr || bc != wc {
		return fmt.Errorf("block: block (%d,%d) has shape %dx%d, want %dx%d", bi, bj, br, bc, wr, wc)
	}
	return nil
}

// SetBlock stores blk at grid position (bi, bj); it panics where CheckBlock
// reports an error. A nil blk deletes the block (all-zero).
func (m *Matrix) SetBlock(bi, bj int, blk matrix.Mat) {
	m.SetCounted(bi, bj, blk, count(blk))
}

// SetCounted is SetBlock for a block whose non-zero count nnz the caller
// took where the block was made (-1: not known), so NNZ keeps its total
// rather than scanning the block again.
func (m *Matrix) SetCounted(bi, bj int, blk matrix.Mat, nnz int) {
	if err := m.CheckBlock(bi, bj, blk); err != nil {
		panic(err.Error())
	}
	m.put(bi, bj, blk, nnz)
}

// NumStoredBlocks returns the number of explicitly stored (non-zero) blocks.
func (m *Matrix) NumStoredBlocks() int { return m.stored }

// Keys returns the stored block keys in row-major order.
func (m *Matrix) Keys() []Key {
	ks := make([]Key, 0, m.stored)
	m.ForEach(func(k Key, _ matrix.Mat) { ks = append(ks, k) })
	return ks
}

// ForEach calls fn for every stored block in row-major order.
func (m *Matrix) ForEach(fn func(k Key, blk matrix.Mat)) {
	for bi := 0; bi < m.br; bi++ {
		for bj, blk := range m.grid[bi*m.bc : (bi+1)*m.bc] {
			if blk != nil {
				fn(Key{bi, bj}, blk)
			}
		}
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

// NNZ returns the total number of stored non-zeros across blocks. The matrix
// keeps the total as blocks are stored (put) — a session asks for the density
// of every bound input on every query — and scans only when a block of
// unknown count was stored or replaced since the last count. Blocks are
// immutable, so concurrent readers of one matrix may both scan: they store
// the same number.
func (m *Matrix) NNZ() int {
	if n := m.nnz.Load(); n > 0 {
		return int(n - 1)
	}
	n := 0
	for _, b := range m.grid {
		if b != nil {
			n += b.NNZ()
		}
	}
	m.nnz.Store(int64(n) + 1)
	return n
}

// SizeBytes returns the total in-memory footprint of the stored blocks.
func (m *Matrix) SizeBytes() int64 {
	var n int64
	for _, b := range m.grid {
		if b != nil {
			n += b.SizeBytes()
		}
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
	for i, b := range m.grid {
		if b != nil {
			out.grid[i] = b.Clone()
		}
	}
	out.stored = m.stored
	out.nnz.Store(m.nnz.Load())
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
			out.put(bi, bj, matrix.MaybeCompress(blk, matrix.SparseResultThreshold), nnz)
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
		cur := dst.Block(k.Row, k.Col)
		if cur == nil {
			dst.put(k.Row, k.Col, blk.Clone(), count(blk))
			return
		}
		sum := matrix.Binary(matrix.Add, cur, blk)
		dst.put(k.Row, k.Col, sum, count(sum))
	})
}

// RandomDense generates a blocked dense matrix with entries in [lo, hi),
// block by block (no full materialisation), deterministically from seed. A
// range above zero holds no zero, so every cell is counted without a scan;
// any other range leaves the count to NNZ.
func RandomDense(rows, cols, blockSize int, lo, hi float64, seed int64) *Matrix {
	out := New(rows, cols, blockSize)
	for bi := 0; bi < out.BlockRows(); bi++ {
		for bj := 0; bj < out.BlockCols(); bj++ {
			br, bc := out.BlockDims(bi, bj)
			s := seed*1_000_003 + int64(bi)*131 + int64(bj)
			nnz := -1
			if lo > 0 && hi >= lo { // lo + u·(hi-lo) ≥ lo for u in [0, 1)
				nnz = br * bc
			}
			out.put(bi, bj, matrix.RandomDense(br, bc, lo, hi, s), nnz)
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
			out.put(bi, bj, blk, blk.NNZ())
		}
	}
	return out
}

// Transpose returns the blocked transpose (each block transposed, grid
// positions swapped).
func Transpose(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows, m.BlockSize)
	m.ForEach(func(k Key, blk matrix.Mat) {
		out.put(k.Col, k.Row, matrix.Transpose(blk), -1)
	})
	out.nnz.Store(m.nnz.Load()) // a transpose moves every value, zero or not
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
			out.put(bi, bj, blk, blk.NNZ())
		}
	}
	return out
}
