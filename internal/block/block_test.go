package block

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"fuseme/internal/matrix"
)

func TestGridGeometry(t *testing.T) {
	m := New(25, 10, 8)
	if m.BlockRows() != 4 || m.BlockCols() != 2 {
		t.Fatalf("grid = %dx%d, want 4x2", m.BlockRows(), m.BlockCols())
	}
	r, c := m.BlockDims(0, 0)
	if r != 8 || c != 8 {
		t.Fatalf("interior block %dx%d", r, c)
	}
	r, c = m.BlockDims(3, 1)
	if r != 1 || c != 2 {
		t.Fatalf("edge block %dx%d, want 1x2", r, c)
	}
}

func TestSetBlockValidation(t *testing.T) {
	m := New(10, 10, 4)
	ok := func(f func()) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		f()
		return
	}
	if !ok(func() { m.SetBlock(5, 0, matrix.NewDense(4, 4)) }) {
		t.Fatal("out-of-grid SetBlock did not panic")
	}
	if !ok(func() { m.SetBlock(0, 0, matrix.NewDense(3, 4)) }) {
		t.Fatal("wrong-shape SetBlock did not panic")
	}
	m.SetBlock(0, 0, matrix.NewDense(4, 4))
	if m.NumStoredBlocks() != 1 {
		t.Fatal("block not stored")
	}
	m.SetBlock(0, 0, nil)
	if m.NumStoredBlocks() != 0 {
		t.Fatal("nil SetBlock did not delete")
	}
}

func TestFromMatToMatRoundTrip(t *testing.T) {
	for _, bs := range []int{3, 4, 7, 50} {
		src := matrix.RandomSparse(23, 17, 0.2, -1, 1, 42)
		m := FromMat(src, bs)
		if !matrix.EqualApprox(m.ToMat(), src, 0) {
			t.Fatalf("bs=%d: round trip mismatch", bs)
		}
		if m.NNZ() != src.NNZ() {
			t.Fatalf("bs=%d: nnz %d != %d", bs, m.NNZ(), src.NNZ())
		}
	}
}

func TestAtResolvesThroughBlocks(t *testing.T) {
	src := matrix.RandomDense(13, 9, -1, 1, 7)
	m := FromMat(src, 4)
	for i := 0; i < 13; i++ {
		for j := 0; j < 9; j++ {
			if m.At(i, j) != src.At(i, j) {
				t.Fatalf("At(%d,%d) mismatch", i, j)
			}
		}
	}
}

func TestZeroBlocksNotStored(t *testing.T) {
	src := matrix.NewDense(20, 20)
	src.Set(0, 0, 1)   // block (0,0)
	src.Set(15, 15, 2) // block (1,1) with bs=10
	m := FromMat(src, 10)
	if m.NumStoredBlocks() != 2 {
		t.Fatalf("stored %d blocks, want 2", m.NumStoredBlocks())
	}
	if m.Block(0, 1) != nil || m.Block(1, 0) != nil {
		t.Fatal("zero blocks stored")
	}
}

func TestKeysSorted(t *testing.T) {
	m := New(30, 30, 10)
	m.SetBlock(2, 1, matrix.NewDenseData(10, 10, make([]float64, 100)))
	m.SetBlock(0, 2, matrix.NewDenseData(10, 10, make([]float64, 100)))
	m.SetBlock(0, 0, matrix.NewDenseData(10, 10, make([]float64, 100)))
	ks := m.Keys()
	want := []Key{{0, 0}, {0, 2}, {2, 1}}
	for i, k := range want {
		if ks[i] != k {
			t.Fatalf("Keys() = %v, want %v", ks, want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m := RandomDense(12, 12, 4, -1, 1, 1)
	c := m.Clone()
	c.Block(0, 0).(*matrix.Dense).Set(0, 0, 999)
	if m.At(0, 0) == 999 {
		t.Fatal("Clone shares block storage")
	}
}

func TestAddInto(t *testing.T) {
	a := RandomSparse(20, 20, 5, 0.2, -1, 1, 1)
	b := RandomSparse(20, 20, 5, 0.2, -1, 1, 2)
	sum := a.Clone()
	AddInto(sum, b)
	want := matrix.Binary(matrix.Add, a.ToMat(), b.ToMat())
	if !matrix.EqualApprox(sum.ToMat(), want, 1e-14) {
		t.Fatal("AddInto mismatch")
	}
	// Adding into an empty accumulator must copy, not alias.
	acc := New(20, 20, 5)
	AddInto(acc, b)
	if !matrix.EqualApprox(acc.ToMat(), b.ToMat(), 0) {
		t.Fatal("AddInto empty mismatch")
	}
}

func TestTransposeBlocked(t *testing.T) {
	m := RandomSparse(14, 9, 4, 0.3, -1, 1, 3)
	tr := Transpose(m)
	if tr.Rows != 9 || tr.Cols != 14 {
		t.Fatalf("transpose dims %dx%d", tr.Rows, tr.Cols)
	}
	want := matrix.Transpose(m.ToMat())
	if !matrix.EqualApprox(tr.ToMat(), want, 0) {
		t.Fatal("blocked transpose mismatch")
	}
}

func TestRandomGenerationDeterminism(t *testing.T) {
	a := RandomSparse(30, 30, 8, 0.1, 0, 1, 5)
	b := RandomSparse(30, 30, 8, 0.1, 0, 1, 5)
	if !EqualApprox(a, b, 0) {
		t.Fatal("same seed differs")
	}
	c := RandomDense(30, 30, 8, 0, 1, 5)
	d := RandomDense(30, 30, 8, 0, 1, 6)
	if EqualApprox(c, d, 0) {
		t.Fatal("different seeds identical")
	}
}

func TestSizeBytesAndDensity(t *testing.T) {
	m := RandomDense(16, 16, 8, 1, 2, 9)
	if m.SizeBytes() != 16*16*8 {
		t.Fatalf("SizeBytes = %d", m.SizeBytes())
	}
	if d := m.Density(); d != 1 {
		t.Fatalf("Density = %v", d)
	}
}

// Property: blocked representation is transparent for any block size.
func TestQuickBlockedTransparency(t *testing.T) {
	f := func(seed int64, bsRaw uint8) bool {
		bs := int(bsRaw%9) + 2
		src := matrix.RandomSparse(19, 13, 0.25, -1, 1, seed)
		m := FromMat(src, bs)
		return matrix.EqualApprox(m.ToMat(), src, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: blocked transpose commutes with assembly.
func TestQuickTransposeCommutes(t *testing.T) {
	f := func(seed int64) bool {
		m := RandomSparse(17, 11, 5, 0.3, -1, 1, seed)
		lhs := Transpose(m).ToMat()
		rhs := matrix.Transpose(m.ToMat())
		return matrix.EqualApprox(lhs, rhs, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// countedBlock counts how often its non-zeros are counted.
type countedBlock struct {
	matrix.Mat
	scans *atomic.Int64
}

func (b countedBlock) NNZ() int {
	b.scans.Add(1)
	return b.Mat.NNZ()
}

// TestDensityCachedAndInvalidated: a session asks every bound input for its
// density on every query, so the blocks are scanned once per content epoch,
// not once per call — from any number of concurrent sessions — and every way
// of replacing a block (SetBlock, deleting one, AddInto) makes the next call
// count again.
func TestDensityCachedAndInvalidated(t *testing.T) {
	const rows, cols, bs = 16, 24, 8
	var scans atomic.Int64
	m := New(rows, cols, bs)
	for bi := 0; bi < m.BlockRows(); bi++ {
		for bj := 0; bj < m.BlockCols(); bj++ {
			m.SetBlock(bi, bj, countedBlock{matrix.RandomSparse(bs, bs, 0.25, 1, 2, int64(bi*10+bj)), &scans})
		}
	}
	recount := func() float64 {
		n := 0
		m.ForEach(func(_ Key, blk matrix.Mat) { n += blk.(countedBlock).Mat.NNZ() })
		return float64(n) / (rows * cols)
	}
	var wg sync.WaitGroup
	for s := 0; s < 8; s++ { // concurrent sessions over one shared dataset
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < 50; q++ {
				if d := m.Density(); d != recount() {
					t.Errorf("Density = %v, want %v", d, recount())
				}
			}
		}()
	}
	wg.Wait()
	if n := scans.Load(); n < 6 || n > 8*6 { // once, or once per session that raced to be first
		t.Fatalf("400 Density calls scanned blocks %d times, want one pass over the 6 blocks", n)
	}

	changes := []struct {
		name   string
		change func()
	}{
		{"SetBlock", func() { m.SetBlock(0, 1, countedBlock{matrix.RandomDense(bs, bs, 1, 2, 3), &scans}) }},
		{"delete", func() { m.SetBlock(1, 2, nil) }},
	}
	for _, c := range changes {
		before, epoch := m.Density(), m.Epoch()
		scans.Store(0)
		c.change()
		if d := m.Density(); d == before || d != recount() || m.Epoch() == epoch {
			t.Errorf("%s: density %v -> %v, want %v under a new epoch", c.name, before, d, recount())
		}
		m.Density()
		if n := int(scans.Load()); n != m.NumStoredBlocks() {
			t.Errorf("%s: two Density calls scanned blocks %d times, want one pass over %d blocks", c.name, n, m.NumStoredBlocks())
		}
	}

	dst := RandomSparse(rows, cols, bs, 0.1, 1, 2, 4)
	before := dst.Density()
	AddInto(dst, RandomSparse(rows, cols, bs, 0.1, 1, 2, 5))
	if after := dst.Density(); after <= before || after != float64(dst.Clone().NNZ())/(rows*cols) {
		t.Errorf("AddInto: density %v -> %v, stale or wrong", before, after)
	}
}
