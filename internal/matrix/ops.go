package matrix

import (
	"fmt"
	"math"
	"sync"

	"fuseme/internal/parallel"
)

// BinOp identifies an element-wise binary operation.
type BinOp int

// Supported element-wise binary operations.
const (
	Add BinOp = iota
	Sub
	Mul
	Div
	Pow
	MinOp
	MaxOp
	Neq
	Eq
	Gt
	Lt
	Ge
	Le
)

var binOpNames = map[BinOp]string{
	Add: "+", Sub: "-", Mul: "*", Div: "/", Pow: "^",
	MinOp: "min", MaxOp: "max",
	Neq: "!=", Eq: "==", Gt: ">", Lt: "<", Ge: ">=", Le: "<=",
}

// String returns the surface syntax of the operation.
func (op BinOp) String() string {
	if s, ok := binOpNames[op]; ok {
		return s
	}
	return fmt.Sprintf("BinOp(%d)", int(op))
}

// ParseBinOp maps surface syntax (e.g. "*", "min", "!=") to a BinOp.
func ParseBinOp(s string) (BinOp, bool) {
	for op, name := range binOpNames {
		if name == s {
			return op, true
		}
	}
	return 0, false
}

func boolToF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

var binOpFuncs = [...]func(x, y float64) float64{
	Add:   func(x, y float64) float64 { return x + y },
	Sub:   func(x, y float64) float64 { return x - y },
	Mul:   func(x, y float64) float64 { return x * y },
	Div:   func(x, y float64) float64 { return x / y },
	Pow:   math.Pow,
	MinOp: math.Min,
	MaxOp: math.Max,
	Neq:   func(x, y float64) float64 { return boolToF(x != y) },
	Eq:    func(x, y float64) float64 { return boolToF(x == y) },
	Gt:    func(x, y float64) float64 { return boolToF(x > y) },
	Lt:    func(x, y float64) float64 { return boolToF(x < y) },
	Ge:    func(x, y float64) float64 { return boolToF(x >= y) },
	Le:    func(x, y float64) float64 { return boolToF(x <= y) },
}

// Eval applies the operation to a single pair of values.
func (op BinOp) Eval(x, y float64) float64 { return binOpFuncs[op](x, y) }

// Flops returns the floating-point operation count charged for one
// application of the operation (used by the computation-cost meter).
func (op BinOp) Flops() int64 {
	if op == Pow {
		return 10 // pow is far more expensive than an add/mul
	}
	return 1
}

// Cell is a compiled element-wise expression defined at every cell of a
// block. p is the position of (i, j) in the pattern being walked — a lookup
// hint for sparse operands — or -1 on a dense walk.
type Cell func(i, j, p int) float64

// rowFn is the strip form of a Cell: a compiled expression over whole rows of
// a dense block. It returns row i — computed into dst, or, for an operand
// stored row-major, the operand's own storage, which the caller only reads.
// scratch holds the strips the expression needs besides dst.
type rowFn func(i int, dst, scratch []float64) []float64

// Value is an element-wise expression over one block of a Chain: the zero
// Value is an all-zero block, blk is set for a block that exists (an operand,
// or a sparse result), and anything else is a dense result not built yet.
type Value struct {
	cell   Cell
	blk    Mat
	vector bool // blk is a row/column vector or 1x1 block, read by broadcast

	// The strip form, which Materialise prefers for a dense result. row is nil
	// when an operand has none (a CSR leaf): such a value is stored cell by
	// cell.
	row    rowFn
	strips int  // scratch strips row needs
	view   bool // row returns an operand's storage and never writes dst

	// store, where the last operator has the form, is row i computed as row
	// computes it and stored flushed into out by that operator's own loop:
	// each value of out is written after its operands' values were read.
	store func(i int, out, dst, scratch []float64)
}

// IsZero reports whether v is an all-zero block.
func (v Value) IsZero() bool { return v.cell == nil }

// Cell returns v as a function of every cell; unstored positions read as 0.
func (v Value) Cell() Cell {
	if v.cell == nil {
		return func(int, int, int) float64 { return 0 }
	}
	return v.cell
}

// strip returns v with the strip form of an all-zero block filled in.
func (v Value) strip() Value {
	if v.cell == nil {
		v.row = func(_ int, dst, _ []float64) []float64 {
			clear(dst)
			return dst
		}
	}
	return v
}

// sparse returns v's block when it is a full-shaped CSR block.
func (v Value) sparse() *CSR {
	if s, ok := v.blk.(*CSR); ok && !v.vector {
		return s
	}
	return nil
}

// Chain compiles a run of element-wise operators over one Rows x Cols block
// into one expression, which Materialise applies once into one output buffer:
// no dense operator's block is ever built. Each step decides the
// representation of its result from its operands' (a product is at most as
// dense as its sparse operand — the kernel-level form of the paper's sparsity
// exploitation; a zero-preserving function keeps a sparse pattern; everything
// else is dense). A sparse result is built at once, by walking its operand's
// pattern with the chain compiled so far, so sparse steps cost O(nnz) and
// dense ones nothing until the single store. Binary, BinaryScalar and Apply
// are one-step chains, so these rules exist once.
//
// The expression has two forms. Every Value is a function of a cell (Cell),
// which the pattern walks (onPattern, a sparse operand of a MaskedChain) call
// per stored position. A dense result over operands stored row-major also has
// a strip form (rowFn): one call per operator per row, each a tight loop over
// the row, which Materialise uses to write each output row. Both apply the same
// scalar operations in the same order to every cell, so they agree bit for
// bit; a dense result with a CSR operand has only the cell form.
type Chain struct {
	Rows, Cols int
	// Flops meters the steps: each costs its operator's flops per touched
	// cell — every cell of a dense result, the stored values of a sparse one.
	Flops int64
	// Alloc, when set, gives the block a dense result is stored into where
	// no Owned operand gives one; nil allocates a fresh block.
	Alloc func(rows, cols int) *Dense
	out   *Dense // an operand's buffer the dense result may be stored into
}

// Owned is Leaf for a dense block the caller allocated, has not published
// and gives up: a dense result is stored into the first such block. Row i of
// an operand is only read to compute row i of the result, and the aliasing
// rule is that no operand value is written before it was read: Materialise
// evaluates each row into scratch up to its last operator, whose loop stores
// each value of the owned row after reading that value's operands — wherever
// in the expression the owned block stands.
func (c *Chain) Owned(blk Mat) Value {
	if d, ok := blk.(*Dense); ok && c.out == nil && d.Rows == c.Rows && d.Cols == c.Cols {
		c.out = d
	}
	return c.Leaf(blk)
}

// Leaf wraps a block as an operand. nil is an all-zero block; a block with a
// single row or column where the chain has more is read by broadcast.
func (c *Chain) Leaf(blk Mat) Value {
	if blk == nil {
		return Value{}
	}
	r, k := blk.Dims()
	if (r != c.Rows && r != 1) || (k != c.Cols && k != 1) {
		panic(fmt.Sprintf("matrix: element-wise shape mismatch: %dx%d operand of a %dx%d result", r, k, c.Rows, c.Cols))
	}
	mi, mj := 1, 1 // index multipliers: 0 along a broadcast axis
	if r != c.Rows {
		mi = 0
	}
	if k != c.Cols {
		mj = 0
	}
	v := Value{blk: blk, vector: mi == 0 || mj == 0}
	switch b := blk.(type) {
	case *Dense:
		d, ld := b.Data, k*mi
		v.cell = func(i, j, _ int) float64 { return d[i*ld+j*mj] }
		if mj == 1 { // a full block hands out its own row, a row vector its only one
			v.view = true
			v.row = func(i int, _, _ []float64) []float64 { return d[i*ld : i*ld+k] }
		} else { // a column vector or 1x1 block: one scalar per row
			v.row = func(i int, dst, _ []float64) []float64 {
				fill(dst, d[i*ld])
				return dst
			}
		}
	case *CSR:
		v.cell = func(i, j, p int) float64 {
			i, j = i*mi, j*mj
			// The hint is right when the walked pattern is this block's.
			if uint(p) < uint(len(b.Col)) && b.Col[p] == j && b.RowPtr[i] <= p && p < b.RowPtr[i+1] {
				return b.Val[p]
			}
			return b.At(i, j)
		}
	}
	return v
}

// onPattern builds the sparse result g over s's stored values: s's pattern,
// minus zero results when dropZeros.
func (c *Chain) onPattern(s *CSR, flops int64, dropZeros bool, g func(v float64, i, j, p int) float64) Value {
	out := NewCSR(s.Rows, s.Cols)
	out.Col = make([]int, 0, len(s.Col))
	out.Val = make([]float64, 0, len(s.Col))
	for i := 0; i < s.Rows; i++ {
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			if v := flush(g(s.Val[p], i, s.Col[p], p)); v != 0 || !dropZeros {
				out.Col = append(out.Col, s.Col[p])
				out.Val = append(out.Val, v)
			}
		}
		out.RowPtr[i+1] = len(out.Val)
	}
	c.Flops += int64(len(out.Val)) * flops
	return c.Leaf(out)
}

// apply compiles u(x). A zero-preserving u keeps a sparse pattern. The strip
// form of a dense result is one call of u over the row; last, when not nil,
// is u's flushing form — last(out, src) stores flush(u(src[j])) into out[j] —
// and the value's store.
func (c *Chain) apply(u UnaryFn, flops int64, x Value, dropZeros bool, last func(out, src []float64)) Value {
	f := u.F
	s := x.sparse()
	switch {
	case f(0) != 0 || (s == nil && !x.IsZero()):
		c.Flops += int64(c.Rows*c.Cols) * flops
		x = x.strip()
		xc, xr := x.Cell(), x.row
		v := Value{cell: func(i, j, p int) float64 { return f(xc(i, j, p)) }, strips: x.strips}
		if xr != nil {
			v.row = func(i int, dst, scratch []float64) []float64 {
				u.over(dst, xr(i, dst, scratch))
				return dst
			}
			if last != nil {
				v.store = func(i int, out, dst, scratch []float64) { last(out, xr(i, dst, scratch)) }
			}
		}
		return v
	case s == nil:
		return Value{}
	}
	return c.onPattern(s, flops, dropZeros, func(v float64, _, _, _ int) float64 { return f(v) })
}

// Unary compiles u(x) at flops per touched cell. A sparse x under a
// zero-preserving u keeps its pattern, explicit zeros included.
func (c *Chain) Unary(u UnaryFn, flops int64, x Value) Value {
	return c.apply(u, flops, x, false, nil)
}

// Scalar compiles op(x, s), or op(s, x) when left. A sparse x under a
// zero-preserving operation keeps its pattern, minus zero results. The strip
// form is combineScalar's loop.
func (c *Chain) Scalar(op BinOp, x Value, s float64, left bool) Value {
	u := UnaryFn{F: ScalarFn(op, s, left), Strip: func(dst, src []float64) { combineScalar(op, dst, src, s, left, false) }}
	return c.apply(u, op.Flops(), x, true, func(out, src []float64) { combineScalar(op, out, src, s, left, true) })
}

// ScalarFn returns x -> op(x, s), or x -> op(s, x) when left.
func ScalarFn(op BinOp, s float64, left bool) func(float64) float64 {
	f := binOpFuncs[op]
	if left {
		return func(x float64) float64 { return f(s, x) }
	}
	return func(x float64) float64 { return f(x, s) }
}

// full returns a surviving operand at the chain's shape: a zero block plus a
// row vector is still a full block of that vector's values.
func full(x Value) Value {
	if x.vector {
		x.blk, x.vector = nil, false
	}
	return x
}

// Binary compiles op between two operands of the chain's shape, or one of
// them a broadcast vector or 1x1 block.
func (c *Chain) Binary(op BinOp, a, b Value) Value {
	flops := op.Flops()
	za, zb := a.IsZero(), b.IsZero()
	ac, bc := a.Cell(), b.Cell()
	sa, sb := a.sparse(), b.sparse()
	switch {
	case za && zb && op.Eval(0, 0) == 0, za && (op == Mul || op == Div), zb && op == Mul:
		return Value{} // 0*y == 0; 0/y == 0 (positive denominators by contract)
	case za && op == Add:
		return full(b)
	case zb && (op == Add || op == Sub):
		return full(a)
	case za && op == Sub:
		return c.apply(UnaryFn{F: func(x float64) float64 { return x * -1 }}, 1, full(b), true, nil)
	case a.vector || b.vector: // broadcasting always yields a dense block
	case op == Mul && sa != nil:
		return c.onPattern(sa, flops, true, func(v float64, i, j, p int) float64 { return v * bc(i, j, p) })
	case op == Mul && sb != nil:
		return c.onPattern(sb, flops, true, func(v float64, i, j, p int) float64 { return v * ac(i, j, p) })
	case op == Div && sa != nil:
		// The engine only divides by strictly positive denominators (GNMF
		// multiplicative updates), so a sparse numerator keeps its pattern.
		return c.onPattern(sa, flops, true, func(v float64, i, j, p int) float64 { return v / bc(i, j, p) })
	case (op == Add || op == Sub) && sa != nil && sb != nil:
		out := addSubSparse(op, sa, sb)
		c.Flops += int64(out.NNZ()) * flops
		return c.Leaf(out)
	}
	c.Flops += int64(c.Rows*c.Cols) * flops
	v := c.binaryStrip(op, a.strip(), b.strip())
	f := binOpFuncs[op]
	v.cell = func(i, j, p int) float64 { return f(ac(i, j, p), bc(i, j, p)) }
	return v
}

// binaryStrip compiles the strip form of a dense op(a, b): a's row is
// evaluated into the destination, b's into a scratch strip — or into the
// destination too, where either left it alone by handing out its own row —
// and one loop combines them, into the destination (row) or, flushed, into
// the stored row (store).
func (c *Chain) binaryStrip(op BinOp, a, b Value) Value {
	if a.row == nil || b.row == nil {
		return Value{}
	}
	ar, br := a.row, b.row
	bInDst := a.view || b.view
	v := Value{strips: max(a.strips, b.strips)}
	if !bInDst {
		v.strips = max(a.strips, b.strips+1)
	}
	operands := func(i int, dst, scratch []float64) (x, y []float64) {
		x = ar(i, dst, scratch)
		if bInDst {
			return x, br(i, dst, scratch)
		}
		return x, br(i, scratch[:len(dst)], scratch[len(dst):])
	}
	v.row = func(i int, dst, scratch []float64) []float64 {
		x, y := operands(i, dst, scratch)
		combine(op, dst, x, y, false)
		return dst
	}
	v.store = func(i int, out, dst, scratch []float64) {
		x, y := operands(i, dst, scratch)
		combine(op, out, x, y, true)
	}
	return v
}

func addSubSparse(op BinOp, a, b *CSR) *CSR {
	out := NewCSR(a.Rows, a.Cols)
	out.Col = make([]int, 0, len(a.Col)+len(b.Col))
	out.Val = make([]float64, 0, len(a.Val)+len(b.Val))
	sign := 1.0
	if op == Sub {
		sign = -1.0
	}
	for i := 0; i < a.Rows; i++ {
		ac, av := a.RowNNZ(i)
		bc, bv := b.RowNNZ(i)
		pa, pb := 0, 0
		for pa < len(ac) || pb < len(bc) {
			switch {
			case pb >= len(bc) || (pa < len(ac) && ac[pa] < bc[pb]):
				out.Col = append(out.Col, ac[pa])
				out.Val = append(out.Val, av[pa])
				pa++
			case pa >= len(ac) || bc[pb] < ac[pa]:
				out.Col = append(out.Col, bc[pb])
				out.Val = append(out.Val, sign*bv[pb])
				pb++
			default:
				v := av[pa] + sign*bv[pb]
				if v != 0 {
					out.Col = append(out.Col, ac[pa])
					out.Val = append(out.Val, v)
				}
				pa++
				pb++
			}
		}
		out.RowPtr[i+1] = len(out.Val)
	}
	return out
}

// Go cannot set FTZ/DAZ per goroutine, and one subnormal operand makes a
// multiply ~100x slower, so factors that decay across iterations (GNMF's) must
// not carry subnormals from one operator into the next: the chain's single
// store flushes them. A value whose exponent bits are all zero is zero or
// subnormal.
func flush(v float64) float64 {
	if math.Float64bits(v)&(0x7ff<<52) == 0 {
		return 0
	}
	return v
}

// chainGrain is the minimum number of cells worth a helper goroutine.
const chainGrain = 4096

// stripPool recycles the scratch strips of Materialise and MaskedChain.Run,
// one slice per p.For chunk.
var stripPool sync.Pool

// getStrips takes a slice of capacity at least n from stripPool.
func getStrips(n int) *[]float64 {
	buf, _ := stripPool.Get().(*[]float64)
	if buf == nil || cap(*buf) < n {
		s := make([]float64, n)
		buf = &s
	}
	return buf
}

// Materialise applies x once, into one output block, rows split across p's
// kernel threads: strip by strip where x has that form, cell by cell
// otherwise. A row is evaluated into scratch up to its last operator, which
// stores it flushed into the output row (Value.store) — or, where that
// operator has no such form, one flushing copy does — so an Owned output's
// value is only written after it was read. Without an Owned output the block
// is c.Alloc's, or fresh. A zero value is a nil block; a block that already
// exists (an operand that came through unchanged, a sparse result) is
// returned.
func (c *Chain) Materialise(p *parallel.Pool, x Value) Mat {
	switch {
	case x.IsZero():
		return nil
	case x.blk != nil && !x.vector:
		return x.blk
	}
	out := c.out
	switch {
	case out != nil:
	case c.Alloc != nil:
		out = c.Alloc(c.Rows, c.Cols)
	default:
		out = NewDense(c.Rows, c.Cols)
	}
	store := x.store
	if store == nil {
		row := x.row
		if row == nil { // one call per cell
			row = func(i int, dst, _ []float64) []float64 {
				for j := range dst {
					dst[j] = x.cell(i, j, -1)
				}
				return dst
			}
		}
		store = func(i int, out, dst, scratch []float64) { flushStrip(out, row(i, dst, scratch)) }
	}
	need := (x.strips + 1) * c.Cols
	p.For(c.Rows, 1+chainGrain/(c.Cols+1), func(lo, hi int) {
		buf := getStrips(need)
		defer stripPool.Put(buf)
		dst, scratch := (*buf)[:c.Cols], (*buf)[c.Cols:need]
		for i := lo; i < hi; i++ {
			store(i, out.Row(i), dst, scratch)
		}
	})
	return out
}

// MaskedChain is the masked (outer-fusion) form of a Chain: the element-wise
// path from the main multiplication up to the driver multiply, compiled into
// passes over the values buffer of one block. vals holds one value per stored
// position of the driver block mask — the masked product, or nothing yet when
// the first pass is Sample — and Run rewrites it in place, pass by pass,
// into the output block's values. Each pass is one loop over a run of vals,
// so an operator costs one call per p.For chunk — a unary function without a
// strip form, one per value; every value still sees the operators' scalar
// operations in chain order. The zero MaskedChain is the empty path: Run then
// only multiplies by the driver.
type MaskedChain struct {
	passes []maskedPass
}

// maskedPass is one step of a MaskedChain.
type maskedPass struct {
	kind passKind
	left bool    // the scalar or block is op's left operand
	u    UnaryFn // passUnary
	op   BinOp   // passScalar, passBlock
	s    float64 // passScalar
	blk  Mat     // passBlock, passSample; nil is an all-zero block
}

type passKind uint8

const (
	passUnary  passKind = iota // v = u(v)
	passScalar                 // v = op(v, s)
	passBlock                  // v = op(v, blk[i,j])
	passSample                 // v = flush(blk[i,j])
)

// Sample appends the pass that fills vals from blk at the pattern's positions
// (nil: zeros), flushed: a product that was summed elsewhere and is sampled,
// not computed.
func (m *MaskedChain) Sample(blk Mat) {
	m.passes = append(m.passes, maskedPass{kind: passSample, blk: blk})
}

// Unary appends v = u(v).
func (m *MaskedChain) Unary(u UnaryFn) {
	m.passes = append(m.passes, maskedPass{kind: passUnary, u: u})
}

// Scalar appends v = op(v, s), or op(s, v) when left.
func (m *MaskedChain) Scalar(op BinOp, s float64, left bool) {
	m.passes = append(m.passes, maskedPass{kind: passScalar, op: op, s: s, left: left})
}

// Block appends v = op(v, blk[i,j]), or op(blk[i,j], v) when left, for a
// block of the pattern's shape or a vector or 1x1 block read by broadcast;
// nil is an all-zero block, to which the operator is still applied.
func (m *MaskedChain) Block(op BinOp, blk Mat, left bool) {
	m.passes = append(m.passes, maskedPass{kind: passBlock, op: op, blk: blk, left: left})
}

// Run applies the passes and then the driver multiply to vals in place:
// vals[q] = flush(passes(vals[q]) * mask.Val[q]), which with mask's pattern is
// the output block. Mask rows are split across p's kernel threads; each chunk
// runs every pass over its own run of vals, so results do not depend on the
// split.
func (m *MaskedChain) Run(p *parallel.Pool, mask *CSR, vals []float64) {
	operands := false // some pass combines vals with a gathered operand
	for _, ps := range m.passes {
		operands = operands || ps.kind == passBlock
	}
	p.For(mask.Rows, rowGrain, func(lo, hi int) {
		qLo, qHi := mask.RowPtr[lo], mask.RowPtr[hi]
		run := vals[qLo:qHi]
		var other []float64
		if operands {
			buf := getStrips(len(run))
			defer stripPool.Put(buf)
			other = (*buf)[:len(run)]
		}
		for _, ps := range m.passes {
			switch ps.kind {
			case passUnary:
				ps.u.over(run, run)
			case passScalar:
				combineScalar(ps.op, run, run, ps.s, ps.left, false)
			case passBlock:
				gather(other, ps.blk, mask, lo, hi)
				if ps.left {
					combine(ps.op, run, other, run, false)
				} else {
					combine(ps.op, run, run, other, false)
				}
			case passSample:
				gather(run, ps.blk, mask, lo, hi)
				flushStrip(run, run)
			}
		}
		combine(Mul, run, run, mask.Val[qLo:qHi], true)
	})
}

// gather reads blk at the stored positions of mask rows [lo, hi) into dst,
// one value per position in pattern order.
func gather(dst []float64, blk Mat, mask *CSR, lo, hi int) {
	base := mask.RowPtr[lo]
	switch d := blk.(type) {
	case nil:
		clear(dst)
		return
	case *Dense:
		if d.Rows != mask.Rows || d.Cols != mask.Cols {
			break
		}
		for i := lo; i < hi; i++ {
			row := d.Data[i*d.Cols : (i+1)*d.Cols]
			for q := mask.RowPtr[i]; q < mask.RowPtr[i+1]; q++ {
				dst[q-base] = row[mask.Col[q]]
			}
		}
		return
	}
	// A vector, a 1x1 or a CSR block: broadcast, the position hint and the
	// shape check are Leaf's.
	c := Chain{Rows: mask.Rows, Cols: mask.Cols}
	cell := c.Leaf(blk).cell
	for i := lo; i < hi; i++ {
		for q := mask.RowPtr[i]; q < mask.RowPtr[i+1]; q++ {
			dst[q-base] = cell(i, mask.Col[q], q)
		}
	}
}

// one builds the chain of a one-operator kernel over operands a and b.
func one(a, b Mat) *Chain {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	return &Chain{Rows: max(ar, br), Cols: max(ac, bc)}
}

// Binary applies op element-wise to a and b into a fresh block. Shapes must
// either match exactly, or one operand may be a broadcastable vector: a 1xC
// row vector, an Rx1 column vector, or a 1x1 matrix (treated as a scalar).
func Binary(op BinOp, a, b Mat) Mat {
	c := one(a, b)
	return c.Materialise(nil, c.Binary(op, c.Leaf(a), c.Leaf(b)))
}

// BinaryScalar applies op between every element of a and the scalar s. When
// scalarOnLeft is true the scalar is the left operand: op(s, x).
func BinaryScalar(op BinOp, a Mat, s float64, scalarOnLeft bool) Mat {
	c := one(a, a)
	return c.Materialise(nil, c.Scalar(op, c.Leaf(a), s, scalarOnLeft))
}

// unaryFuncs maps surface names to element-wise functions: the scalar form
// and, for the functions the workloads run over whole blocks, a strip form
// (unary.go) — an assembly kernel for the three transcendentals, a plain loop
// for the algebraic ones. "sq" is the ^2 of the paper's weighted-squared-loss
// examples; "sigmoid" and "sigmoidGrad" serve the AutoEncoder workload.
var unaryFuncs = map[string]UnaryFn{
	"log":   withKernel(math.Log, kernelLog, logAVX),
	"exp":   withKernel(math.Exp, kernelExp, expAVX),
	"sqrt":  {F: math.Sqrt},
	"abs":   {F: math.Abs, Strip: absStrip},
	"sin":   {F: math.Sin},
	"cos":   {F: math.Cos},
	"tanh":  {F: math.Tanh},
	"round": {F: math.Round},
	"floor": {F: math.Floor},
	"ceil":  {F: math.Ceil},
	"sq":    {F: sq, Strip: sqStrip},
	"neg":   {F: neg, Strip: negStrip},
	"recip": {F: recip, Strip: recipStrip},
	"sign": {F: func(x float64) float64 {
		switch {
		case x > 0:
			return 1
		case x < 0:
			return -1
		}
		return 0
	}},
	"relu":        {F: relu, Strip: reluStrip},
	"sigmoid":     withKernel(func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }, kernelSigmoid, sigmoidAVX),
	"sigmoidGrad": {F: sigmoidGrad, Strip: sigmoidGradStrip},
}

// UnaryFunc returns the element-wise function registered under name.
func UnaryFunc(name string) (UnaryFn, bool) {
	u, ok := unaryFuncs[name]
	return u, ok
}

// UnaryFlops returns the flop cost charged per element for the named unary
// function by the computation-cost meter.
func UnaryFlops(name string) int64 {
	switch name {
	case "sq", "neg", "abs", "sign", "relu":
		return 1
	default:
		return 10 // transcendental
	}
}

// Apply evaluates f element-wise. If f preserves zero (f(0) == 0) a sparse
// input keeps its sparse pattern; otherwise the result is dense.
func Apply(f func(float64) float64, a Mat) Mat {
	c := one(a, a)
	return c.Materialise(nil, c.Unary(UnaryFn{F: f}, 0, c.Leaf(a)))
}

// ApplyNamed evaluates the registered unary function name element-wise.
func ApplyNamed(name string, a Mat) Mat {
	u, ok := UnaryFunc(name)
	if !ok {
		panic(fmt.Sprintf("matrix: unknown unary function %q", name))
	}
	return Apply(u.F, a) // the scalar form: internal/ref's oracle stays clear of the strip kernels
}

// Scale returns s * a, preserving sparsity.
func Scale(a Mat, s float64) Mat { return BinaryScalar(Mul, a, s, false) }
