package matrix

import (
	"fmt"
	"math/rand"
	"testing"
)

func randDense(t testing.TB, rows, cols int, seed int64) *Dense {
	t.Helper()
	return RandomDense(rows, cols, -1, 1, seed)
}

func randSparse(t testing.TB, rows, cols int, density float64, seed int64) *CSR {
	t.Helper()
	return RandomSparse(rows, cols, density, -1, 1, seed)
}

func TestNewDense(t *testing.T) {
	d := NewDense(3, 4)
	if r, c := d.Dims(); r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d, want 3,4", r, c)
	}
	if d.NNZ() != 0 {
		t.Fatalf("NNZ of zero matrix = %d, want 0", d.NNZ())
	}
	d.Set(1, 2, 5)
	if got := d.At(1, 2); got != 5 {
		t.Fatalf("At(1,2) = %v, want 5", got)
	}
	if d.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1", d.NNZ())
	}
	if d.IsSparse() {
		t.Fatal("Dense reports IsSparse")
	}
	if d.SizeBytes() != 3*4*8 {
		t.Fatalf("SizeBytes = %d", d.SizeBytes())
	}
}

func TestNewDenseDataPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDenseData(2, 2, []float64{1, 2, 3})
}

func TestCSRAtAndRowNNZ(t *testing.T) {
	// 3x4 matrix with entries (0,1)=2, (0,3)=4, (2,0)=7
	s := &CSR{Rows: 3, Cols: 4,
		RowPtr: []int{0, 2, 2, 3},
		Col:    []int{1, 3, 0},
		Val:    []float64{2, 4, 7},
	}
	cases := []struct {
		i, j int
		want float64
	}{
		{0, 0, 0}, {0, 1, 2}, {0, 2, 0}, {0, 3, 4},
		{1, 0, 0}, {1, 3, 0},
		{2, 0, 7}, {2, 3, 0},
	}
	for _, c := range cases {
		if got := s.At(c.i, c.j); got != c.want {
			t.Errorf("At(%d,%d) = %v, want %v", c.i, c.j, got, c.want)
		}
	}
	cols, vals := s.RowNNZ(0)
	if len(cols) != 2 || cols[0] != 1 || vals[1] != 4 {
		t.Fatalf("RowNNZ(0) = %v %v", cols, vals)
	}
	if s.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", s.NNZ())
	}
	if !s.IsSparse() {
		t.Fatal("CSR does not report IsSparse")
	}
}

func TestDenseCSRRoundTrip(t *testing.T) {
	for _, density := range []float64{0, 0.01, 0.1, 0.5, 0.9} {
		s := randSparse(t, 23, 17, density, 42)
		d := ToDense(s)
		back := ToCSR(d)
		if !Equal(s, back) {
			t.Fatalf("density %v: CSR -> Dense -> CSR round trip mismatch", density)
		}
		if !Equal(s, d) {
			t.Fatalf("density %v: CSR vs Dense view mismatch", density)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := randDense(t, 4, 4, 1)
	c := d.Clone().(*Dense)
	c.Set(0, 0, 999)
	if d.At(0, 0) == 999 {
		t.Fatal("Dense.Clone shares storage")
	}
	s := randSparse(t, 8, 8, 0.3, 2)
	sc := s.Clone().(*CSR)
	if len(sc.Val) > 0 {
		sc.Val[0] = 999
		if s.Val[0] == 999 {
			t.Fatal("CSR.Clone shares storage")
		}
	}
}

func TestDensity(t *testing.T) {
	d := NewDense(10, 10)
	d.Set(0, 0, 1)
	d.Set(5, 5, 1)
	if got := Density(d); got != 0.02 {
		t.Fatalf("Density = %v, want 0.02", got)
	}
	if Density(NewDense(0, 5)) != 0 {
		t.Fatal("Density of empty shape should be 0")
	}
}

func TestMaybeCompress(t *testing.T) {
	d := NewDense(100, 100)
	d.Set(3, 4, 1)
	m := MaybeCompress(d, 0.1)
	if !m.IsSparse() {
		t.Fatal("expected compression of a sparse dense matrix")
	}
	full := RandomDense(10, 10, 1, 2, 7)
	if MaybeCompress(full, 0.1).IsSparse() {
		t.Fatal("dense matrix should not compress")
	}
	s := randSparse(t, 10, 10, 0.1, 8)
	if got := MaybeCompress(s, 0.5); got != Mat(s) {
		t.Fatal("CSR input should pass through unchanged")
	}
}

func TestEqualApprox(t *testing.T) {
	a := randDense(t, 5, 5, 3)
	b := a.Clone().(*Dense)
	if !Equal(a, b) {
		t.Fatal("clone not Equal")
	}
	b.Data[7] += 1e-12
	if Equal(a, b) {
		t.Fatal("perturbed matrix reported exactly Equal")
	}
	if !EqualApprox(a, b, 1e-9) {
		t.Fatal("EqualApprox too strict")
	}
	c := NewDense(5, 4)
	if EqualApprox(a, c, 1) {
		t.Fatal("shape mismatch reported equal")
	}
}

func TestTransposeInvolution(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		d := randDense(t, 7, 11, seed)
		if !Equal(d, Transpose(Transpose(d))) {
			t.Fatalf("seed %d: dense transpose not an involution", seed)
		}
		s := randSparse(t, 9, 6, 0.2, seed)
		if !Equal(s, Transpose(Transpose(s))) {
			t.Fatalf("seed %d: CSR transpose not an involution", seed)
		}
	}
}

func TestTransposeMatchesAt(t *testing.T) {
	s := randSparse(t, 13, 7, 0.3, 5)
	tr := Transpose(s)
	for i := 0; i < 13; i++ {
		for j := 0; j < 7; j++ {
			if s.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	if !tr.IsSparse() {
		t.Fatal("CSR transpose should stay sparse")
	}
}

func TestCSRColumnOrderAfterTranspose(t *testing.T) {
	s := randSparse(t, 20, 20, 0.3, 11)
	tr := Transpose(s).(*CSR)
	for i := 0; i < tr.Rows; i++ {
		cols, _ := tr.RowNNZ(i)
		for p := 1; p < len(cols); p++ {
			if cols[p] <= cols[p-1] {
				t.Fatalf("row %d columns not strictly increasing: %v", i, cols)
			}
		}
	}
}

// BenchmarkTransposeDense transposes a square block and the two blocks GNMF
// transposes in every task — a member t(U) of a 256x64 factor block and the
// 64x256 dense x CSR accumulator written back — into a fresh block each time,
// as the executor does for a result, and the GNMF shapes into one reused
// block (the copy alone, without the fresh block's clearing) and into a block
// taken from an arena that is reset after each, as a task takes its retained
// transposes.
func BenchmarkTransposeDense(b *testing.B) {
	for _, sh := range []struct{ r, c int }{{500, 500}, {256, 64}, {64, 256}} {
		d := RandomDense(sh.r, sh.c, -1, 1, 1)
		name := fmt.Sprintf("%dx%d", sh.r, sh.c)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(d.SizeBytes())
			for i := 0; i < b.N; i++ {
				sinkMat = Transpose(d)
			}
		})
		if sh.r == sh.c {
			continue
		}
		out := NewDense(sh.c, sh.r)
		b.Run(name+"/reused", func(b *testing.B) {
			b.SetBytes(d.SizeBytes())
			for i := 0; i < b.N; i++ {
				transposeDense(d, out, 0, d.Cols)
			}
		})
		var a Arena
		b.Run(name+"/arena", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(d.SizeBytes())
			for i := 0; i < b.N; i++ {
				a.Reset()
				sinkMat = TransposeInto(nil, a.Dense(sh.c, sh.r), d)
			}
		})
	}
}

func BenchmarkTransposeCSR(b *testing.B) {
	s := RandomSparse(2000, 2000, 0.01, -1, 1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Transpose(s)
	}
}

var sinkMat Mat

func BenchmarkToDense(b *testing.B) {
	s := RandomSparse(1000, 1000, 0.05, -1, 1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkMat = ToDense(s)
	}
}

func TestRandomSparseDeterminism(t *testing.T) {
	a := RandomSparse(50, 50, 0.1, 0, 1, 99)
	b := RandomSparse(50, 50, 0.1, 0, 1, 99)
	if !Equal(a, b) {
		t.Fatal("same seed produced different matrices")
	}
	c := RandomSparse(50, 50, 0.1, 0, 1, 100)
	if Equal(a, c) {
		t.Fatal("different seeds produced identical matrices")
	}
}

func TestRandomSparseDensity(t *testing.T) {
	for _, density := range []float64{0.001, 0.05, 0.2, 0.7} {
		s := RandomSparse(400, 400, density, 0, 1, 7)
		got := Density(s)
		if got < density*0.5 || got > density*1.5+0.01 {
			t.Errorf("density %v: got %v", density, got)
		}
		// Pattern sanity: columns sorted, indices in range.
		for i := 0; i < s.Rows; i++ {
			cols, _ := s.RowNNZ(i)
			for p, j := range cols {
				if j < 0 || j >= s.Cols {
					t.Fatalf("column index %d out of range", j)
				}
				if p > 0 && cols[p-1] >= j {
					t.Fatalf("row %d not sorted", i)
				}
			}
		}
	}
}

func TestRandomDenseRange(t *testing.T) {
	d := RandomDense(30, 30, 2, 5, 13)
	for _, v := range d.Data {
		if v < 2 || v >= 5 {
			t.Fatalf("value %v outside [2,5)", v)
		}
	}
}

func TestPoissonishMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, lambda := range []float64{0.5, 5, 50, 500} {
		var sum float64
		const n = 2000
		for i := 0; i < n; i++ {
			sum += float64(poissonish(rng, lambda))
		}
		mean := sum / n
		if mean < lambda*0.8-1 || mean > lambda*1.2+1 {
			t.Errorf("lambda %v: sample mean %v", lambda, mean)
		}
	}
}
