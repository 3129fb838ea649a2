package block

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"fuseme/internal/matrix"
)

// gridModel is the reference a Matrix is held to: its shape and its blocks
// in a map.
type gridModel struct {
	rows, cols, bs int
	blocks         map[Key]matrix.Mat
}

func (g *gridModel) dims() (br, bc int) { return ceilDiv(g.rows, g.bs), ceilDiv(g.cols, g.bs) }

// randomBlock returns a block shaped for grid position (bi, bj) of m: dense,
// CSR, or — one time in four — nil.
func randomBlock(r *rand.Rand, m *Matrix, bi, bj int) matrix.Mat {
	br, bc := m.BlockDims(bi, bj)
	switch r.Intn(4) {
	case 0:
		return nil
	case 1:
		return matrix.RandomDense(br, bc, -1, 1, r.Int63())
	}
	return matrix.RandomSparse(br, bc, 0.3, -1, 1, r.Int63())
}

// check holds m to the model: every in-grid Block, Block outside the grid,
// Keys (row-major), ForEach, NumStoredBlocks, NNZ (twice: the second call
// reads the kept total) and SizeBytes.
func (g *gridModel) check(t *testing.T, step string, m *Matrix) {
	t.Helper()
	br, bc := g.dims()
	if m.Rows != g.rows || m.Cols != g.cols || m.BlockRows() != br || m.BlockCols() != bc {
		t.Fatalf("%s: shape %dx%d grid %dx%d, want %dx%d grid %dx%d", step, m.Rows, m.Cols, m.BlockRows(), m.BlockCols(), g.rows, g.cols, br, bc)
	}
	var wantKeys []Key
	nnz, size := 0, int64(0)
	for bi := 0; bi < br; bi++ {
		for bj := 0; bj < bc; bj++ {
			want, got := g.blocks[Key{bi, bj}], m.Block(bi, bj)
			if (want == nil) != (got == nil) || want != nil && !matrix.EqualApprox(got, want, 0) {
				t.Fatalf("%s: Block(%d,%d) = %v, want %v", step, bi, bj, got, want)
			}
			if want != nil {
				wantKeys = append(wantKeys, Key{bi, bj})
				nnz += want.NNZ()
				size += want.SizeBytes()
			}
		}
	}
	for _, k := range []Key{{-1, 0}, {0, -1}, {br, 0}, {0, bc}, {br, bc}, {-1, bc}, {br - 1, bc}, {br, -1}} {
		if blk := m.Block(k.Row, k.Col); blk != nil {
			t.Fatalf("%s: Block%v outside the %dx%d grid = %v, want nil", step, k, br, bc, blk)
		}
	}
	if got := m.Keys(); !slices.Equal(got, wantKeys) {
		t.Fatalf("%s: Keys() = %v, want %v", step, got, wantKeys)
	}
	var walked []Key
	m.ForEach(func(k Key, blk matrix.Mat) {
		walked = append(walked, k)
		if blk != m.Block(k.Row, k.Col) {
			t.Fatalf("%s: ForEach hands %v a block Block does not return", step, k)
		}
	})
	if !slices.Equal(walked, wantKeys) {
		t.Fatalf("%s: ForEach walks %v, want %v", step, walked, wantKeys)
	}
	if got := m.NumStoredBlocks(); got != len(g.blocks) {
		t.Fatalf("%s: NumStoredBlocks() = %d, want %d", step, got, len(g.blocks))
	}
	for pass := 0; pass < 2; pass++ {
		if got := m.NNZ(); got != nnz {
			t.Fatalf("%s: NNZ() pass %d = %d, want %d", step, pass, got, nnz)
		}
	}
	if got := m.SizeBytes(); got != size {
		t.Fatalf("%s: SizeBytes() = %d, want %d", step, got, size)
	}
}

// TestGridAgainstMapModel runs random sequences of SetBlock (deletes and
// edge-shaped blocks among them), AddInto, Clone and Transpose against a
// map[Key]Mat model. After every step the matrix must read as the model.
func TestGridAgainstMapModel(t *testing.T) {
	for seq := 0; seq < 60; seq++ {
		r := rand.New(rand.NewSource(int64(seq)))
		bs := 1 + r.Intn(5)
		g := &gridModel{rows: r.Intn(4 * bs), cols: r.Intn(4 * bs), bs: bs, blocks: map[Key]matrix.Mat{}}
		if seq%7 == 0 {
			g.rows, g.cols = 4*bs+1, 2*bs // edge blocks one row tall
		}
		m := New(g.rows, g.cols, bs)
		for step := 0; step < 40; step++ {
			m.NNZ() // take the count, so a step that changes m must drop it
			br, bc := g.dims()
			var name string
			switch op := r.Intn(10); {
			case op < 6 && br > 0 && bc > 0:
				bi, bj := r.Intn(br), r.Intn(bc)
				blk := randomBlock(r, m, bi, bj)
				name = fmt.Sprintf("SetBlock(%d,%d,nil=%v)", bi, bj, blk == nil)
				m.SetBlock(bi, bj, blk)
				if blk == nil {
					delete(g.blocks, Key{bi, bj})
				} else {
					g.blocks[Key{bi, bj}] = blk
				}
			case op < 8:
				name = "AddInto"
				src := New(g.rows, g.cols, bs)
				for bi := 0; bi < br; bi++ {
					for bj := 0; bj < bc; bj++ {
						src.SetBlock(bi, bj, randomBlock(r, src, bi, bj))
					}
				}
				src.ForEach(func(k Key, blk matrix.Mat) {
					if cur := g.blocks[k]; cur != nil {
						g.blocks[k] = matrix.Binary(matrix.Add, cur, blk)
					} else {
						g.blocks[k] = blk
					}
				})
				AddInto(m, src)
			case op < 9:
				name = "Clone"
				m = m.Clone()
			default:
				name = "Transpose"
				m = Transpose(m)
				tr := map[Key]matrix.Mat{}
				for k, blk := range g.blocks {
					tr[Key{k.Col, k.Row}] = matrix.Transpose(blk)
				}
				g.rows, g.cols, g.blocks = g.cols, g.rows, tr
			}
			step := fmt.Sprintf("seq %d step %d %s", seq, step, name)
			g.check(t, step, m)
		}
	}
}

// BenchmarkMatrixGrid times the per-block bookkeeping a task pays before its
// kernel runs — Block, SetBlock, and a ForEach walk of the whole grid — on
// nmfk_sim's X (20000×20000, block 256: a 79×79 grid, every block stored)
// and on serve_http's X (1024×1024, block 128: 8×8). Cells of one shape
// share one block, as immutable blocks may.
func BenchmarkMatrixGrid(b *testing.B) {
	for _, c := range []struct {
		name         string
		rows, cols   int
		bs           int
		density      float64
		gridRowsCols int
	}{
		{"nmfk-79x79", 20000, 20000, 256, 0.005, 79},
		{"serve-8x8", 1024, 1024, 128, 0.05, 8},
	} {
		m := New(c.rows, c.cols, c.bs)
		shared := map[[2]int]matrix.Mat{}
		for bi := 0; bi < m.BlockRows(); bi++ {
			for bj := 0; bj < m.BlockCols(); bj++ {
				br, bc := m.BlockDims(bi, bj)
				blk, ok := shared[[2]int{br, bc}]
				if !ok {
					blk = matrix.RandomSparse(br, bc, c.density, 0.5, 1.5, int64(br*bc))
					shared[[2]int{br, bc}] = blk
				}
				m.SetBlock(bi, bj, blk)
			}
		}
		if m.BlockRows() != c.gridRowsCols || m.NumStoredBlocks() != c.gridRowsCols*c.gridRowsCols {
			b.Fatalf("%s: %dx%d grid with %d blocks", c.name, m.BlockRows(), m.BlockCols(), m.NumStoredBlocks())
		}
		cells := m.BlockRows() * m.BlockCols()
		// next steps (bi, bj) through the grid in row-major order, wrapping.
		next := func(bi, bj int) (int, int) {
			if bj++; bj == m.BlockCols() {
				bi, bj = bi+1, 0
				if bi == m.BlockRows() {
					bi = 0
				}
			}
			return bi, bj
		}
		b.Run(c.name+"/Block", func(b *testing.B) {
			hit, bi, bj := 0, 0, 0
			for i := 0; i < b.N; i++ {
				if m.Block(bi, bj) != nil {
					hit++
				}
				bi, bj = next(bi, bj)
			}
			if hit != b.N {
				b.Fatalf("%d of %d lookups found a block", hit, b.N)
			}
		})
		b.Run(c.name+"/SetBlock", func(b *testing.B) {
			bi, bj := 0, 0
			for i := 0; i < b.N; i++ {
				m.SetBlock(bi, bj, m.Block(bi, bj))
				bi, bj = next(bi, bj)
			}
		})
		b.Run(c.name+"/ForEach", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				stored := 0
				m.ForEach(func(Key, matrix.Mat) { stored++ })
				if stored != cells {
					b.Fatalf("walked %d of %d blocks", stored, cells)
				}
			}
		})
	}
}

// TestMatrixNNZMatchesScan holds the non-zero total a Matrix keeps to a fresh
// block-by-block scan, after every step of seeded random sequences: SetBlock
// with dense, CSR and nil blocks and over stored ones, SetCounted with a
// dense block's count (as a result sink stores it), AddInto, Clone, Transpose
// and the generators. Each step takes one to three changes before the total
// is read, so changes land on a kept total and on a dropped one. A total kept
// from counts alone — CSR and SetCounted blocks, RandomDense over a positive
// range — is read without scanning a block.
func TestMatrixNNZMatchesScan(t *testing.T) {
	scan := func(m *Matrix) int {
		n := 0
		m.ForEach(func(_ Key, blk matrix.Mat) { n += blk.NNZ() })
		return n
	}
	for seq := 0; seq < 40; seq++ {
		r := rand.New(rand.NewSource(int64(1000 + seq)))
		bs := 1 + r.Intn(5)
		rows, cols := 1+r.Intn(4*bs), 1+r.Intn(4*bs)
		m := New(rows, cols, bs)
		for step := 0; step < 30; step++ {
			var names []string
			for change := 0; change <= r.Intn(3); change++ {
				bi, bj := r.Intn(m.BlockRows()), r.Intn(m.BlockCols())
				switch op := r.Intn(12); {
				case op < 5:
					blk := randomBlock(r, m, bi, bj)
					names = append(names, fmt.Sprintf("SetBlock(%d,%d,%T)", bi, bj, blk))
					m.SetBlock(bi, bj, blk)
				case op < 7:
					br, bc := m.BlockDims(bi, bj)
					blk := matrix.RandomSparse(br, bc, 0.5, -1, 1, r.Int63()) // zeros among the values
					d := matrix.ToDense(blk)
					names = append(names, fmt.Sprintf("SetCounted(%d,%d)", bi, bj))
					m.SetCounted(bi, bj, d, d.NNZ())
				case op < 8:
					names = append(names, "AddInto")
					src := New(m.Rows, m.Cols, bs)
					src.SetBlock(bi, bj, randomBlock(r, src, bi, bj))
					AddInto(m, src)
				case op < 9:
					names = append(names, "Clone")
					m = m.Clone()
				case op < 10:
					names = append(names, "Transpose")
					m = Transpose(m)
				case op < 11:
					names = append(names, "RandomSparse")
					m = RandomSparse(m.Rows, m.Cols, bs, r.Float64(), -1, 1, r.Int63())
				default:
					lo := float64(r.Intn(3) - 1) // ranges with zero inside, at an end, and above it
					names = append(names, fmt.Sprintf("RandomDense(lo=%v)", lo))
					m = RandomDense(m.Rows, m.Cols, bs, lo, lo+1, r.Int63())
				}
			}
			if got, want := m.NNZ(), scan(m); got != want {
				t.Fatalf("seq %d step %d %v: NNZ() = %d, a scan counts %d", seq, step, names, got, want)
			}
		}
	}

	var scans atomic.Int64
	counted := func(blk matrix.Mat) countedBlock { return countedBlock{blk, &scans} }
	m := New(24, 16, 8)
	m.SetCounted(0, 0, counted(matrix.RandomDense(8, 8, 1, 2, 1)), 64)
	m.SetCounted(1, 1, counted(matrix.RandomDense(8, 8, 1, 2, 2)), 64)
	m.SetBlock(2, 0, matrix.RandomSparse(8, 8, 0.3, 1, 2, 3))
	for _, k := range []*Matrix{m, m.Clone(), RandomDense(24, 16, 8, 0.1, 0.9, 4), Transpose(RandomDense(16, 24, 8, 0.1, 0.9, 5))} {
		if got, want := k.NNZ(), scan(k); got != want {
			t.Errorf("NNZ() = %d, a scan counts %d", got, want)
		}
	}
	if n := scans.Load(); n != 2 { // the test's own scan of m's two counted blocks
		t.Errorf("kept totals scanned the counted blocks %d times", n-2)
	}
}
