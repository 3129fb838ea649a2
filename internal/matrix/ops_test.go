package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"fuseme/internal/parallel"
)

func TestBinOpEval(t *testing.T) {
	cases := []struct {
		op   BinOp
		x, y float64
		want float64
	}{
		{Add, 2, 3, 5},
		{Sub, 2, 3, -1},
		{Mul, 2, 3, 6},
		{Div, 6, 3, 2},
		{Pow, 2, 3, 8},
		{MinOp, 2, 3, 2},
		{MaxOp, 2, 3, 3},
		{Neq, 2, 3, 1},
		{Neq, 2, 2, 0},
		{Eq, 2, 2, 1},
		{Gt, 3, 2, 1},
		{Lt, 3, 2, 0},
		{Ge, 2, 2, 1},
		{Le, 3, 2, 0},
	}
	for _, c := range cases {
		if got := c.op.Eval(c.x, c.y); got != c.want {
			t.Errorf("%v.Eval(%v,%v) = %v, want %v", c.op, c.x, c.y, got, c.want)
		}
	}
}

func TestParseBinOpRoundTrip(t *testing.T) {
	for op := Add; op <= Le; op++ {
		got, ok := ParseBinOp(op.String())
		if !ok || got != op {
			t.Errorf("ParseBinOp(%q) = %v, %v", op.String(), got, ok)
		}
	}
	if _, ok := ParseBinOp("@@"); ok {
		t.Fatal("parsed invalid operator")
	}
}

// refBinary is the elementwise reference implementation used to validate all
// fast paths.
func refBinary(op BinOp, a, b Mat) *Dense {
	r, c := a.Dims()
	out := NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			out.Set(i, j, op.Eval(a.At(i, j), b.At(i, j)))
		}
	}
	return out
}

func TestBinarySameShapeAllRepresentations(t *testing.T) {
	d1 := randDense(t, 15, 9, 1)
	d2 := RandomDense(15, 9, 1, 2, 2) // strictly positive, safe divisor
	s1 := randSparse(t, 15, 9, 0.25, 3)
	s2 := randSparse(t, 15, 9, 0.25, 4)
	for _, op := range []BinOp{Add, Sub, Mul, MinOp, MaxOp} {
		combos := []struct {
			name string
			a, b Mat
		}{
			{"dd", d1, d2}, {"sd", s1, d2}, {"ds", d1, s2}, {"ss", s1, s2},
		}
		for _, cb := range combos {
			got := Binary(op, cb.a, cb.b)
			want := refBinary(op, cb.a, cb.b)
			if !EqualApprox(got, want, 1e-14) {
				t.Errorf("op %v combo %s mismatch", op, cb.name)
			}
		}
	}
	// Division with a strictly positive dense denominator.
	for _, a := range []Mat{d1, s1} {
		got := Binary(Div, a, d2)
		want := refBinary(Div, a, d2)
		if !EqualApprox(got, want, 1e-14) {
			t.Errorf("division mismatch for %T", a)
		}
	}
}

func TestBinarySparseMulKeepsSparse(t *testing.T) {
	s := randSparse(t, 40, 40, 0.05, 5)
	d := randDense(t, 40, 40, 6)
	got := Binary(Mul, s, d)
	if !got.IsSparse() {
		t.Fatal("sparse * dense should stay sparse")
	}
	if got.NNZ() > s.NNZ() {
		t.Fatalf("result nnz %d exceeds pattern nnz %d", got.NNZ(), s.NNZ())
	}
	got2 := Binary(Mul, d, s)
	if !got2.IsSparse() {
		t.Fatal("dense * sparse should stay sparse")
	}
	if !EqualApprox(got, got2, 1e-15) {
		t.Fatal("multiplication not commutative across representations")
	}
}

func TestBinaryScalar(t *testing.T) {
	s := randSparse(t, 20, 20, 0.1, 7)
	// Zero-preserving: x * 2 keeps pattern.
	got := BinaryScalar(Mul, s, 2, false)
	if !got.IsSparse() {
		t.Fatal("x*2 should stay sparse")
	}
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if got.At(i, j) != s.At(i, j)*2 {
				t.Fatalf("(%d,%d): %v != %v*2", i, j, got.At(i, j), s.At(i, j))
			}
		}
	}
	// Non-zero-preserving: x + 1 densifies.
	got = BinaryScalar(Add, s, 1, false)
	if got.IsSparse() {
		t.Fatal("x+1 should densify")
	}
	if got.At(0, 0) != s.At(0, 0)+1 {
		t.Fatal("x+1 wrong value")
	}
	// Scalar on left: 10 / x.
	d := RandomDense(4, 4, 1, 2, 8)
	got = BinaryScalar(Div, d, 10, true)
	if math.Abs(got.At(1, 1)-10/d.At(1, 1)) > 1e-15 {
		t.Fatal("scalar-on-left division wrong")
	}
}

func TestBinaryNeqZeroPattern(t *testing.T) {
	// (X != 0) is the ALS weighting pattern; it must stay sparse with all
	// stored values equal to 1.
	s := randSparse(t, 30, 30, 0.1, 9)
	got := BinaryScalar(Neq, s, 0, false)
	if !got.IsSparse() {
		t.Fatal("(X != 0) should stay sparse")
	}
	cs := got.(*CSR)
	if cs.NNZ() != s.NNZ() {
		t.Fatalf("pattern nnz %d, want %d", cs.NNZ(), s.NNZ())
	}
	for _, v := range cs.Val {
		if v != 1 {
			t.Fatalf("pattern value %v, want 1", v)
		}
	}
}

func TestBinaryScalarMatrixOperand(t *testing.T) {
	d := randDense(t, 5, 5, 10)
	one := NewDenseData(1, 1, []float64{3})
	got := Binary(Mul, d, one)
	want := BinaryScalar(Mul, d, 3, false)
	if !Equal(got, want) {
		t.Fatal("1x1 right operand not treated as scalar")
	}
	got = Binary(Sub, one, d)
	want = BinaryScalar(Sub, d, 3, true)
	if !Equal(got, want) {
		t.Fatal("1x1 left operand not treated as scalar")
	}
}

func TestBinaryBroadcastRowAndCol(t *testing.T) {
	d := randDense(t, 6, 4, 11)
	row := randDense(t, 1, 4, 12)
	col := randDense(t, 6, 1, 13)
	got := Binary(Add, d, row)
	for i := 0; i < 6; i++ {
		for j := 0; j < 4; j++ {
			if got.At(i, j) != d.At(i, j)+row.At(0, j) {
				t.Fatalf("row broadcast wrong at (%d,%d)", i, j)
			}
		}
	}
	got = Binary(Sub, d, col)
	for i := 0; i < 6; i++ {
		for j := 0; j < 4; j++ {
			if got.At(i, j) != d.At(i, j)-col.At(i, 0) {
				t.Fatalf("col broadcast wrong at (%d,%d)", i, j)
			}
		}
	}
	// Vector on the left of a non-commutative op.
	got = Binary(Sub, row, d)
	for i := 0; i < 6; i++ {
		for j := 0; j < 4; j++ {
			if got.At(i, j) != row.At(0, j)-d.At(i, j) {
				t.Fatalf("left row broadcast wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestBinaryShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Binary(Add, NewDense(3, 3), NewDense(4, 4))
}

func TestAddSubSparseMerge(t *testing.T) {
	a := randSparse(t, 25, 25, 0.15, 20)
	b := randSparse(t, 25, 25, 0.15, 21)
	sum := Binary(Add, a, b)
	if !sum.IsSparse() {
		t.Fatal("sparse + sparse should stay sparse")
	}
	if !EqualApprox(sum, refBinary(Add, a, b), 1e-15) {
		t.Fatal("sparse add mismatch")
	}
	diff := Binary(Sub, a, b)
	if !EqualApprox(diff, refBinary(Sub, a, b), 1e-15) {
		t.Fatal("sparse sub mismatch")
	}
	// a - a must cancel to an empty matrix, with zeros dropped.
	z := Binary(Sub, a, a).(*CSR)
	if z.NNZ() != 0 {
		t.Fatalf("a-a has %d stored entries", z.NNZ())
	}
}

func TestApplyZeroPreserving(t *testing.T) {
	s := randSparse(t, 12, 12, 0.2, 30)
	sq := ApplyNamed("sq", s)
	if !sq.IsSparse() {
		t.Fatal("x^2 should preserve sparsity")
	}
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			want := s.At(i, j) * s.At(i, j)
			if math.Abs(sq.At(i, j)-want) > 1e-15 {
				t.Fatalf("sq mismatch at (%d,%d)", i, j)
			}
		}
	}
	lg := ApplyNamed("exp", s)
	if lg.IsSparse() {
		t.Fatal("exp(0)=1 must densify")
	}
}

func TestUnaryFuncRegistry(t *testing.T) {
	for _, name := range []string{"log", "exp", "sqrt", "abs", "sin", "cos", "tanh", "sq", "neg", "sign", "relu", "sigmoid", "sigmoidGrad", "recip", "round", "floor", "ceil"} {
		if _, ok := UnaryFunc(name); !ok {
			t.Errorf("missing unary function %q", name)
		}
	}
	if _, ok := UnaryFunc("nope"); ok {
		t.Fatal("unknown function resolved")
	}
	sig, _ := UnaryFunc("sigmoid")
	if math.Abs(sig.F(0)-0.5) > 1e-15 {
		t.Fatal("sigmoid(0) != 0.5")
	}
	if UnaryFlops("sq") != 1 || UnaryFlops("log") != 10 {
		t.Fatal("unexpected unary flop charges")
	}
}

func TestScale(t *testing.T) {
	s := randSparse(t, 10, 10, 0.2, 40)
	got := Scale(s, -2)
	if !got.IsSparse() {
		t.Fatal("scale should preserve sparsity")
	}
	if got.At(0, 0) != -2*s.At(0, 0) {
		t.Fatal("scale wrong value")
	}
}

// Property: for every op and random dense matrices, Binary agrees with the
// scalar evaluation at every coordinate.
func TestQuickBinaryAgreesWithEval(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		a := RandomDense(8, 8, -2, 2, seedA)
		b := RandomDense(8, 8, 1, 3, seedB)
		for _, op := range []BinOp{Add, Sub, Mul, Div, MinOp, MaxOp, Gt, Le} {
			if !EqualApprox(Binary(op, a, b), refBinary(op, a, b), 1e-14) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: sparse representations never change numeric results.
func TestQuickSparseDenseEquivalence(t *testing.T) {
	f := func(seed int64, densityRaw uint8) bool {
		density := float64(densityRaw%90)/100 + 0.05
		s := RandomSparse(10, 10, density, -1, 1, seed)
		d := ToDense(s)
		other := RandomDense(10, 10, 1, 2, seed+1)
		for _, op := range []BinOp{Add, Sub, Mul, Div} {
			sparseRes := Binary(op, s, other)
			denseRes := Binary(op, d, other)
			if !EqualApprox(sparseRes, denseRes, 1e-14) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: Add and Mul are commutative across representations.
func TestQuickCommutativity(t *testing.T) {
	f := func(seed int64) bool {
		a := RandomSparse(9, 9, 0.3, -1, 1, seed)
		b := RandomDense(9, 9, -1, 1, seed+7)
		return EqualApprox(Binary(Add, a, b), Binary(Add, b, a), 1e-15) &&
			EqualApprox(Binary(Mul, a, b), Binary(Mul, b, a), 1e-15)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBinaryMulSparseDense(b *testing.B) {
	s := RandomSparse(1000, 1000, 0.01, -1, 1, 1)
	d := RandomDense(1000, 1000, -1, 1, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkMat = Binary(Mul, s, d)
	}
}

func BenchmarkBinaryAddDenseDense(b *testing.B) {
	x := RandomDense(1000, 1000, -1, 1, 1)
	y := RandomDense(1000, 1000, -1, 1, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkMat = Binary(Add, x, y)
	}
}

// chainExpr is a random element-wise expression for TestChainFusesLikeStepwise.
type chainExpr struct {
	leaf   Mat // operand block (nil is an all-zero block) when kids is empty
	isLeaf bool
	owned  bool // the fused chain is given a private copy of leaf, as Owned
	unary  string
	op     BinOp
	scalar *float64 // op with a scalar, on the left when left
	left   bool
	kids   []*chainExpr
}

func (e *chainExpr) String() string {
	switch {
	case e.isLeaf && e.leaf == nil:
		return "zero"
	case e.isLeaf:
		r, c := e.leaf.Dims()
		return fmt.Sprintf("%dx%d(sparse=%v owned=%v)", r, c, e.leaf.IsSparse(), e.owned)
	case e.unary != "":
		return fmt.Sprintf("%s(%s)", e.unary, e.kids[0])
	case e.scalar != nil && e.left:
		return fmt.Sprintf("(%v %s %s)", *e.scalar, e.op, e.kids[0])
	case e.scalar != nil:
		return fmt.Sprintf("(%s %s %v)", e.kids[0], e.op, *e.scalar)
	}
	return fmt.Sprintf("(%s %s %s)", e.kids[0], e.op, e.kids[1])
}

// build compiles e into c. With stepwise set every operator is materialised
// on its own — the per-node evaluation the chain replaced — and its charge
// is checked against the block it produced.
func (e *chainExpr) build(t *testing.T, c *Chain, stepwise bool) Value {
	if e.isLeaf {
		if e.owned && !stepwise {
			return c.Owned(e.leaf.Clone())
		}
		return c.Leaf(e.leaf)
	}
	step, kids := c, make([]Value, len(e.kids))
	if stepwise {
		step = &Chain{Rows: c.Rows, Cols: c.Cols}
	}
	for i, k := range e.kids {
		switch {
		case k.isLeaf: // a block as it is: a vector stays a vector
			kids[i] = k.build(t, step, stepwise)
		case stepwise:
			kids[i] = step.Leaf(c.Materialise(nil, k.build(t, c, true)))
		default:
			kids[i] = k.build(t, c, false)
		}
	}
	var v Value
	var flops int64
	switch {
	case e.unary != "":
		f, _ := UnaryFunc(e.unary)
		v, flops = step.Unary(f, UnaryFlops(e.unary), kids[0]), UnaryFlops(e.unary)
	case e.scalar != nil:
		v, flops = step.Scalar(e.op, kids[0], *e.scalar, e.left), e.op.Flops()
	default:
		v, flops = step.Binary(e.op, kids[0], kids[1]), e.op.Flops()
	}
	if !stepwise {
		return v
	}
	out := step.Materialise(nil, v)
	touched := int64(0) // the cells a kernel touches to produce out
	switch o := out.(type) {
	case *CSR:
		touched = int64(o.NNZ())
	case *Dense:
		touched = int64(c.Rows * c.Cols)
	}
	passed := false // x + 0 and x - 0 are x, whole or broadcast, at no cost
	for _, k := range kids {
		passed = passed || (len(kids) == 2 && k.IsZero() && (e.op == Add || e.op == Sub) && step.Flops == 0)
	}
	if want := touched * flops; step.Flops != want && !passed {
		t.Fatalf("step %s%s: charged %d flops for a block of %d touched cells x %d", e.unary, e.op, step.Flops, touched, flops)
	}
	c.Flops += step.Flops
	return c.Leaf(out)
}

// TestChainFusesLikeStepwise compiles random expressions over dense, sparse,
// zero, row-vector, column-vector and 1x1 operands, some of them Owned, once
// as a single chain and once operator by operator, and requires the same
// block — values, representation, pattern — and the same flops from both, and
// from the fused chain's strips the bits its cells give.
func TestChainFusesLikeStepwise(t *testing.T) {
	const rows, cols = 11, 9
	rng := rand.New(rand.NewSource(3))
	leaves := []Mat{
		RandomDense(rows, cols, 0.5, 1.5, 1), RandomDense(rows, cols, -1, 1, 2),
		RandomSparse(rows, cols, 0.3, -1, 1, 3), RandomSparse(rows, cols, 0.2, 0.5, 2, 4),
		nil, RandomDense(1, cols, 0.5, 1.5, 5), RandomDense(rows, 1, -1, 1, 6),
		RandomSparse(1, cols, 0.5, 1, 2, 7), RandomDense(1, 1, 0.5, 1.5, 8),
	}
	unaries := []string{"sq", "exp", "relu", "abs", "neg", "round", "sign"}
	ops := []BinOp{Add, Sub, Mul, Div, MaxOp, Lt, Neq}
	var gen func(depth int) *chainExpr
	gen = func(depth int) *chainExpr {
		if depth == 0 || rng.Intn(4) == 0 {
			leaf := leaves[rng.Intn(len(leaves))]
			return &chainExpr{isLeaf: true, leaf: leaf, owned: leaf != nil && !leaf.IsSparse() && rng.Intn(3) == 0}
		}
		switch rng.Intn(3) {
		case 0:
			return &chainExpr{unary: unaries[rng.Intn(len(unaries))], kids: []*chainExpr{gen(depth - 1)}}
		case 1:
			s := []float64{0, 2, -1, 0.5}[rng.Intn(4)]
			return &chainExpr{op: ops[rng.Intn(len(ops))], scalar: &s, left: rng.Intn(2) == 0, kids: []*chainExpr{gen(depth - 1)}}
		}
		return &chainExpr{op: ops[rng.Intn(len(ops))], kids: []*chainExpr{gen(depth - 1), gen(depth - 1)}}
	}
	strips := 0 // dense results stored strip by strip
	for trial := 0; trial < 2000; trial++ {
		e := gen(4)
		fused := &Chain{Rows: rows, Cols: cols}
		x := e.build(t, fused, false)
		var cells *Dense
		if !x.IsZero() && (x.blk == nil || x.vector) { // a dense result yet to be stored
			cells = cellwise(fused, x)
			if x.row != nil {
				strips++
			}
		}
		got := fused.Materialise(nil, x)
		if cells != nil && !sameBits(got.(*Dense), cells) {
			t.Fatalf("trial %d: %s: stored block differs from the cell-by-cell result (strips=%v)", trial, e, x.row != nil)
		}
		step := &Chain{Rows: rows, Cols: cols}
		want := step.Materialise(nil, e.build(t, step, true))
		switch {
		case got == nil || want == nil:
			if got != nil || want != nil {
				t.Fatalf("trial %d: fused zero=%v, stepwise zero=%v", trial, got == nil, want == nil)
			}
		case got.IsSparse() != want.IsSparse() || got.NNZ() != want.NNZ() || !EqualApprox(got, want, 0):
			t.Fatalf("trial %d: %s: fused block (sparse=%v nnz=%d) differs from stepwise (sparse=%v nnz=%d)",
				trial, e, got.IsSparse(), got.NNZ(), want.IsSparse(), want.NNZ())
		}
		if fused.Flops != step.Flops {
			t.Fatalf("trial %d: %s: fused chain charged %d flops, stepwise %d", trial, e, fused.Flops, step.Flops)
		}
	}
	if strips < 500 {
		t.Fatalf("only %d of 2000 expressions were stored strip by strip: the generator lost its coverage", strips)
	}
}

// cellwise stores x the way every strip must reproduce bit for bit: one call
// of its cell form per cell, flushed.
func cellwise(c *Chain, x Value) *Dense {
	out, cell := NewDense(c.Rows, c.Cols), x.Cell()
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			out.Data[i*c.Cols+j] = flush(cell(i, j, -1))
		}
	}
	return out
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b *Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestMaskedChainMatchesCells runs random pass lists — unary, scalar and
// block passes with either operand order, over dense, CSR (the mask's own
// pattern and another), vector, 1x1 and all-zero operands, with and without a
// leading Sample — and requires from MaskedChain.Run, at 1 and 3 threads, the
// bits of applying the same operators to each stored value on its own.
func TestMaskedChainMatchesCells(t *testing.T) {
	const rows, cols = 70, 23
	rng := rand.New(rand.NewSource(9))
	mask := RandomSparse(rows, cols, 0.2, 0.5, 2, 1)
	blocks := []Mat{
		RandomDense(rows, cols, 0.5, 1.5, 2), mask, RandomSparse(rows, cols, 0.3, -1, 1, 3), nil,
		RandomDense(1, cols, 0.5, 1.5, 4), RandomDense(rows, 1, -1, 1, 5), RandomDense(1, 1, 0.5, 1.5, 6), RandomSparse(1, cols, 0.5, 1, 2, 7),
	}
	unaries := []string{"sq", "exp", "relu", "neg", "sign"}
	ops := []BinOp{Add, Sub, Mul, Div, MaxOp, Lt}
	c := &Chain{Rows: rows, Cols: cols}
	for trial := 0; trial < 300; trial++ {
		var passes MaskedChain
		var steps []func(v float64, i, j, q int) float64 // the same path, one stored value at a time
		vals := make([]float64, mask.NNZ())
		for q := range vals {
			vals[q] = 2*rng.Float64() - 1
		}
		if rng.Intn(3) == 0 {
			blk := blocks[rng.Intn(len(blocks))]
			cell := c.Leaf(blk).Cell()
			passes.Sample(blk)
			steps = append(steps, func(_ float64, i, j, q int) float64 { return flush(cell(i, j, q)) })
		}
		for n := rng.Intn(5); n > 0; n-- {
			op, left := ops[rng.Intn(len(ops))], rng.Intn(2) == 0
			switch rng.Intn(3) {
			case 0:
				u, _ := UnaryFunc(unaries[rng.Intn(len(unaries))])
				passes.Unary(u)
				steps = append(steps, func(v float64, _, _, _ int) float64 { return u.F(v) })
			case 1:
				sc := []float64{0, 2, -1, 0.5}[rng.Intn(4)]
				passes.Scalar(op, sc, left)
				f := ScalarFn(op, sc, left)
				steps = append(steps, func(v float64, _, _, _ int) float64 { return f(v) })
			default:
				blk := blocks[rng.Intn(len(blocks))]
				cell := c.Leaf(blk).Cell()
				passes.Block(op, blk, left)
				steps = append(steps, func(v float64, i, j, q int) float64 {
					if left {
						return op.Eval(cell(i, j, q), v)
					}
					return op.Eval(v, cell(i, j, q))
				})
			}
		}
		want := make([]float64, len(vals))
		for i := 0; i < rows; i++ {
			for q := mask.RowPtr[i]; q < mask.RowPtr[i+1]; q++ {
				v := vals[q]
				for _, step := range steps {
					v = step(v, i, mask.Col[q], q)
				}
				want[q] = flush(v * mask.Val[q])
			}
		}
		for _, threads := range []int{1, 3} {
			got, pool := slices.Clone(vals), parallel.New(threads, 1)
			passes.Run(pool, mask, got)
			if !sameBits(NewDenseData(1, len(got), got), NewDenseData(1, len(want), want)) {
				t.Fatalf("trial %d, %d threads: the passes differ from the per-value path", trial, threads)
			}
			if threads > 1 && pool.Stats().ParallelCalls == 0 {
				t.Fatalf("the passes never split at %d threads", threads)
			}
		}
	}
}

// TestStripInPlaceAliasing puts the Owned block, which the result is stored
// into, in every operand position: the result must be the cell-by-cell one
// bit for bit, stored in the owned block, at every thread count, and no other
// operand may change.
func TestStripInPlaceAliasing(t *testing.T) {
	sig, _ := UnaryFunc("sigmoid")
	type operands struct{ view, p, a, b, row, col Value } // view is the owned block wrapped by Leaf before Owned
	positions := []struct {
		name  string
		build func(c *Chain, o operands) Value
	}{
		{"left", func(c *Chain, o operands) Value { return c.Binary(Sub, o.p, c.Scalar(Mul, o.a, 0.5, false)) }},
		{"right", func(c *Chain, o operands) Value { return c.Binary(Sub, o.a, c.Scalar(Mul, o.p, 0.5, false)) }},
		{"right-of-computed", func(c *Chain, o operands) Value { return c.Binary(Sub, c.Binary(Add, o.a, o.b), o.p) }},
		{"nested-left", func(c *Chain, o operands) Value {
			return c.Binary(Div, c.Binary(Add, c.Binary(Mul, o.p, o.a), o.b), c.Scalar(Add, o.a, 3, false))
		}},
		{"nested-right", func(c *Chain, o operands) Value {
			return c.Binary(Mul, c.Binary(Add, o.a, o.b), c.Binary(Sub, o.b, c.Binary(Mul, o.a, o.p)))
		}},
		{"nested-right-of-leaf", func(c *Chain, o operands) Value {
			return c.Binary(Mul, o.a, c.Binary(Sub, o.b, c.Binary(Mul, o.a, o.p)))
		}},
		{"unary", func(c *Chain, o operands) Value { return c.Binary(Mul, o.a, c.Unary(sig, 10, o.p)) }},
		{"unary-right-of-computed", func(c *Chain, o operands) Value {
			return c.Binary(Mul, c.Unary(sig, 10, o.a), c.Unary(sig, 10, o.p))
		}},
		{"twice", func(c *Chain, o operands) Value { return c.Binary(Sub, c.Binary(Add, o.p, o.a), o.p) }},
		{"vector", func(c *Chain, o operands) Value {
			return c.Unary(sig, 10, c.Binary(Mul, c.Binary(Add, o.p, o.col), o.row))
		}},
		{"row-vector-left", func(c *Chain, o operands) Value { return c.Binary(Sub, o.row, o.p) }},
		{"column-vector-left", func(c *Chain, o operands) Value { return c.Binary(Sub, o.col, o.p) }},
		{"generic-op", func(c *Chain, o operands) Value { return c.Binary(MaxOp, o.a, c.Binary(Lt, o.p, o.b)) }},
		{"leaf-before-owned", func(c *Chain, o operands) Value { return c.Binary(Sub, o.view, c.Unary(sig, 10, o.p)) }},
	}
	for _, cols := range []int{1, 7, 128, 256} {
		rows := 2*(1+chainGrain/(cols+1)) + 3 // two chunks of Materialise's grain
		others := []*Dense{
			RandomDense(rows, cols, 0.5, 1.5, 1), RandomDense(rows, cols, -1, 1, 2),
			RandomDense(1, cols, -1, 1, 3), RandomDense(rows, 1, -1, 1, 4),
		}
		owned := RandomDense(rows, cols, -1, 1, 5)
		for _, pos := range positions {
			for _, threads := range []int{1, 2, 4} {
				c, p := &Chain{Rows: rows, Cols: cols}, owned.Clone().(*Dense)
				before := make([]*Dense, len(others))
				for i, o := range others {
					before[i] = o.Clone().(*Dense)
				}
				x := pos.build(c, operands{c.Leaf(p), c.Owned(p), c.Leaf(others[0]), c.Leaf(others[1]), c.Leaf(others[2]), c.Leaf(others[3])})
				if x.row == nil {
					t.Fatalf("%s, %d columns: no strip form", pos.name, cols)
				}
				want := cellwise(c, x)
				pool := parallel.New(threads, 1)
				if got := c.Materialise(pool, x); got != Mat(p) {
					t.Fatalf("%s, %d columns: the result is not stored in the owned block", pos.name, cols)
				}
				if !sameBits(p, want) {
					t.Errorf("%s, %d columns, %d threads: strips differ from the cell-by-cell result", pos.name, cols, threads)
				}
				if threads > 1 && pool.Stats().ParallelCalls == 0 {
					t.Errorf("%s, %d columns: the store never split at %d threads", pos.name, cols, threads)
				}
				for i, o := range others {
					if !sameBits(o, before[i]) {
						t.Errorf("%s, %d columns: operand %d changed under the store", pos.name, cols, i)
					}
				}
			}
		}
	}
}

// TestDenseChainsUseStrips keeps the fast path the path: a dense result over
// dense operands — whole blocks, row and column vectors, 1x1 blocks — has a
// strip form, for every operator the one-step wrappers Binary, BinaryScalar
// and Apply compile and for the benchmark's chains, so a later edit cannot
// silently fall back to cells. A CSR operand of a dense result has none, and
// the result is stored cell by cell.
func TestDenseChainsUseStrips(t *testing.T) {
	const rows, cols = 6, 5
	d := RandomDense(rows, cols, 0.5, 1.5, 1)
	shapes := map[string]Mat{
		"block": RandomDense(rows, cols, 1, 2, 2), "row": RandomDense(1, cols, 1, 2, 3),
		"column": RandomDense(rows, 1, 1, 2, 4), "1x1": RandomDense(1, 1, 1, 2, 5),
	}
	check := func(name string, c *Chain, x Value) {
		t.Helper()
		if x.row == nil {
			t.Errorf("%s compiles to a value without a strip form", name)
		} else if want := cellwise(c, x); !sameBits(c.Materialise(nil, x).(*Dense), want) { // cells first: the store may be into an operand
			t.Errorf("%s: strips differ from the cell-by-cell result", name)
		}
	}
	for op := Add; op <= Le; op++ {
		for name, other := range shapes {
			c := one(d, other) // Binary(op, d, other) and Binary(op, other, d)
			check(fmt.Sprintf("Binary(%s, block, %s)", op, name), c, c.Binary(op, c.Leaf(d), c.Leaf(other)))
			check(fmt.Sprintf("Binary(%s, %s, block)", op, name), c, c.Binary(op, c.Leaf(other), c.Leaf(d)))
		}
		for _, left := range []bool{false, true} {
			c := one(d, d) // BinaryScalar(op, d, 2, left)
			check(fmt.Sprintf("BinaryScalar(%s, left=%v)", op, left), c, c.Scalar(op, c.Leaf(d), 2, left))
		}
	}
	for name, f := range unaryFuncs {
		c := one(d, d) // Apply(f, d)
		check("Apply("+name+")", c, c.Unary(f, 0, c.Leaf(d)))
	}

	// GNMF's U * A / B, the AutoEncoder's activation, back-propagated error
	// and SGD update.
	sig, sigGrad := unaryFuncs["sigmoid"], unaryFuncs["sigmoidGrad"]
	a, b, col := shapes["block"], RandomDense(rows, cols, 1, 2, 6), shapes["column"]
	c := &Chain{Rows: rows, Cols: cols}
	check("U * A / B", c, c.Binary(Div, c.Binary(Mul, c.Leaf(d), c.Owned(a.Clone())), c.Leaf(b)))
	c = &Chain{Rows: rows, Cols: cols}
	check("sigmoid(P + b)", c, c.Unary(sig, 10, c.Binary(Add, c.Owned(a.Clone()), c.Leaf(col))))
	c = &Chain{Rows: rows, Cols: cols}
	check("P * sigmoidGrad(H)", c, c.Binary(Mul, c.Owned(a.Clone()), c.Unary(sigGrad, 10, c.Leaf(d))))
	c = &Chain{Rows: rows, Cols: cols}
	check("W - s * P", c, c.Binary(Sub, c.Leaf(d), c.Scalar(Mul, c.Owned(a.Clone()), 0.01, true)))

	s := RandomSparse(rows, cols, 0.3, 1, 2, 7)
	c = &Chain{Rows: rows, Cols: cols}
	x := c.Binary(Add, c.Leaf(d), c.Leaf(s))
	if x.row != nil {
		t.Error("a dense result with a CSR operand claims a strip form")
	}
	if got := c.Materialise(nil, x).(*Dense); !sameBits(got, cellwise(c, x)) || !EqualApprox(got, refBinary(Add, d, s), 0) {
		t.Error("dense + CSR stored cell by cell is not the sum")
	}
}

// BenchmarkChain times the compiled chain at the repo benchmark's block
// shapes: GNMF's dense U * A / B over a 64x256 block, and the NMF kernel's
// x * log(v + eps) over the non-zeros of a 256x256 driver block.
func BenchmarkChain(b *testing.B) {
	u, num, den := RandomDense(benchK, benchBlock, 0.1, 0.9, 1), RandomDense(benchK, benchBlock, 1, 2, 2), RandomDense(benchK, benchBlock, 1, 2, 3)
	benchKernel(b, "dense/U*A/B", 4*u.SizeBytes(), 2*int64(benchK*benchBlock), func() {
		c := &Chain{Rows: benchK, Cols: benchBlock}
		sinkMat = c.Materialise(nil, c.Binary(Div, c.Binary(Mul, c.Leaf(u), c.Leaf(num)), c.Leaf(den)))
	})
	// The AutoEncoder's two chains, on its 128x128 blocks: an activation stored
	// into the product it reads (re-activated every call: values stay in
	// (0, 1)), and the SGD update of a weight block.
	const ae = 128
	acc, bias := RandomDense(ae, ae, -1, 1, 5), RandomDense(ae, 1, -0.1, 0.1, 6)
	sigmoid, _ := UnaryFunc("sigmoid")
	benchKernel(b, "dense/sigmoid(P+b)", 2*acc.SizeBytes(), 11*int64(ae*ae), func() {
		c := &Chain{Rows: ae, Cols: ae}
		sinkMat = c.Materialise(nil, c.Unary(sigmoid, UnaryFlops("sigmoid"), c.Binary(Add, c.Owned(acc), c.Leaf(bias))))
	})
	w, grad := RandomDense(ae, ae, -0.3, 0.3, 7), RandomDense(ae, ae, -1, 1, 8)
	benchKernel(b, "dense/W-s*G", 3*w.SizeBytes(), 2*int64(ae*ae), func() {
		c := &Chain{Rows: ae, Cols: ae}
		sinkMat = c.Materialise(nil, c.Binary(Sub, c.Leaf(w), c.Scalar(Mul, c.Leaf(grad), 0.01, false)))
	})
	for _, d := range []float64{0.005, 0.01} {
		x := RandomSparse(benchBlock, benchBlock, d, 1, 5, 4)
		vals := make([]float64, x.NNZ())
		logf, _ := UnaryFunc("log")
		var passes MaskedChain
		passes.Scalar(Add, 1e-3, false)
		passes.Unary(logf)
		benchKernel(b, fmt.Sprintf("masked/x*log(v+eps)/d=%g", d), x.SizeBytes()+8*int64(len(vals)), 12*int64(len(vals)), func() {
			for q := range vals {
				vals[q] = 0.5
			}
			passes.Run(nil, x, vals)
		})
	}
}
