package matrix

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAggregateSumRowCol(t *testing.T) {
	d := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if got := Aggregate(SumAll, d).At(0, 0); got != 21 {
		t.Fatalf("sum = %v", got)
	}
	rs := Aggregate(RowSum, d)
	if r, c := rs.Dims(); r != 2 || c != 1 {
		t.Fatalf("rowSums dims %dx%d", r, c)
	}
	if rs.At(0, 0) != 6 || rs.At(1, 0) != 15 {
		t.Fatalf("rowSums = %v", rs.Data)
	}
	cs := Aggregate(ColSum, d)
	if r, c := cs.Dims(); r != 1 || c != 3 {
		t.Fatalf("colSums dims %dx%d", r, c)
	}
	if cs.At(0, 0) != 5 || cs.At(0, 1) != 7 || cs.At(0, 2) != 9 {
		t.Fatalf("colSums = %v", cs.Data)
	}
	if got := Aggregate(MinAll, d).At(0, 0); got != 1 {
		t.Fatalf("min = %v", got)
	}
	if got := Aggregate(MaxAll, d).At(0, 0); got != 6 {
		t.Fatalf("max = %v", got)
	}
}

func TestAggregateSparseMatchesDense(t *testing.T) {
	s := randSparse(t, 20, 15, 0.2, 60)
	d := ToDense(s)
	for _, a := range []AggFunc{SumAll, RowSum, ColSum, MinAll, MaxAll} {
		gs := Aggregate(a, s)
		gd := Aggregate(a, d)
		if !EqualApprox(gs, gd, 1e-12) {
			t.Errorf("%v: sparse vs dense mismatch", a)
		}
	}
}

func TestAggregateMinConsidersImplicitZeros(t *testing.T) {
	s := NewCSR(3, 3)
	s.Col = []int{0}
	s.Val = []float64{5}
	s.RowPtr = []int{0, 1, 1, 1}
	if got := Aggregate(MinAll, s).At(0, 0); got != 0 {
		t.Fatalf("min over mostly-zero sparse = %v, want 0", got)
	}
}

func TestAggOutDims(t *testing.T) {
	cases := []struct {
		a            AggFunc
		wantR, wantC int
	}{
		{SumAll, 1, 1}, {RowSum, 7, 1}, {ColSum, 1, 9},
	}
	for _, c := range cases {
		r, cc := c.a.OutDims(7, 9)
		if r != c.wantR || cc != c.wantC {
			t.Errorf("%v.OutDims = %d,%d", c.a, r, cc)
		}
	}
}

func TestAggParseRoundTrip(t *testing.T) {
	for _, a := range []AggFunc{SumAll, RowSum, ColSum, MinAll, MaxAll} {
		got, ok := ParseAggFunc(a.String())
		if !ok || got != a {
			t.Errorf("ParseAggFunc(%q) = %v %v", a.String(), got, ok)
		}
	}
}

func TestAggCombine(t *testing.T) {
	x := NewDenseData(1, 1, []float64{3})
	y := NewDenseData(1, 1, []float64{4})
	if got := SumAll.Combine(x, y).At(0, 0); got != 7 {
		t.Fatalf("sum combine = %v", got)
	}
	if got := MinAll.Combine(x, y).At(0, 0); got != 3 {
		t.Fatalf("min combine = %v", got)
	}
	if got := MaxAll.Combine(x, y).At(0, 0); got != 4 {
		t.Fatalf("max combine = %v", got)
	}
}

// Property: partitioned aggregation equals full aggregation (this is the
// invariant the distributed aggregation stage relies on).
func TestQuickPartitionedSum(t *testing.T) {
	f := func(seed int64) bool {
		m := RandomSparse(16, 16, 0.3, -1, 1, seed)
		full := Aggregate(SumAll, m).At(0, 0)
		var parts float64
		for i := 0; i < 16; i += 4 {
			sub := NewDense(4, 16)
			for r := 0; r < 4; r++ {
				for c := 0; c < 16; c++ {
					sub.Set(r, c, m.At(i+r, c))
				}
			}
			parts += Aggregate(SumAll, sub).At(0, 0)
		}
		return math.Abs(full-parts) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: sum(A) == sum(rowSums(A)) == sum(colSums(A)).
func TestQuickAggregationConsistency(t *testing.T) {
	f := func(seed int64) bool {
		m := RandomDense(11, 13, -2, 2, seed)
		full := Aggregate(SumAll, m).At(0, 0)
		viaRows := Aggregate(SumAll, Aggregate(RowSum, m)).At(0, 0)
		viaCols := Aggregate(SumAll, Aggregate(ColSum, m)).At(0, 0)
		return math.Abs(full-viaRows) < 1e-10 && math.Abs(full-viaCols) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAggregateColSumSparse(b *testing.B) {
	s := RandomSparse(2000, 2000, 0.01, -1, 1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkMat = Aggregate(ColSum, s)
	}
}
