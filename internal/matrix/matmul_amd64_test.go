//go:build amd64

package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"fuseme/internal/parallel"
)

// atLevel runs fn with the kernels held at level n or below.
func atLevel(n int, fn func()) {
	defer func(was int) { simdLevel = was }(simdLevel)
	simdLevel = min(simdLevel, n)
	fn()
}

// portably runs fn with the assembly kernels switched off.
func portably(fn func()) { atLevel(levelPortable, fn) }

// sameFloats reports whether a and b hold the same float64 bit patterns. NaNs
// match each other whatever their payload: which operand's payload an
// operation on two NaNs keeps is the compiler's operand order, not arithmetic.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) && !(math.IsNaN(v) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// special fills s with ordinary values in [-1, 1) and — in one call of three
// not at all, in one rarely, in one every fourth value, so that both exact
// sums and saturated ones are compared — values where a wrong instruction
// shows (oddValues).
func special(rng *rand.Rand, s []float64) []float64 {
	return specialFrom(rng, s, unit, anyOdd)
}

func unit(rng *rand.Rand) float64   { return 2*rng.Float64() - 1 }
func anyOdd(rng *rand.Rand) float64 { return oddValues[rng.Intn(len(oddValues))] }

// specialRegimes are how often special puts an odd value: never, rarely,
// every fourth value.
var specialRegimes = []int{0, 32, 4}

// specialFrom is special over other draws of ordinary and odd values.
func specialFrom(rng *rand.Rand, s []float64, ordinary, odd func(*rand.Rand) float64) []float64 {
	return specialEvery(rng, s, specialRegimes[rng.Intn(3)], ordinary, odd)
}

// specialEvery is specialFrom in a stated regime: an odd value once in every
// values, or never when every is 0.
func specialEvery(rng *rand.Rand, s []float64, every int, ordinary, odd func(*rand.Rand) float64) []float64 {
	for i := range s {
		if s[i] = ordinary(rng); every > 0 && rng.Intn(every) == 0 {
			s[i] = odd(rng)
		}
	}
	return s
}

// kernelLevel is a dispatch level and why a machine below it cannot run it.
type kernelLevel struct {
	name  string
	level int
	lacks string
}

// asmLevels are the dispatch levels with an assembly form.
var asmLevels = []kernelLevel{
	{"avx2", levelAVX2, "CPU or OS lacks AVX, FMA3 or AVX2"},
	{"avx512", levelAVX512, "CPU or OS lacks AVX-512F: the ZMM micro-kernel cannot run here"},
}

// within returns an n-long window of a larger array, off elements in, so a
// kernel that reads its operand from the array's start, or past the window,
// reads other values.
func within(rng *rand.Rand, n, off int) []float64 {
	return special(rng, make([]float64, off+n+9))[off : off+n : off+n]
}

// TestAVXMatchesScalar holds each of the assembly kernels to one arithmetic: the
// assembly form and its portable twin, run on the same operands — ordinary
// and special values, every tail length, operands that are windows of larger
// arrays — must give the same bits.
func TestAVXMatchesScalar(t *testing.T) {
	if simdLevel < levelAVX2 {
		t.Skip("CPU lacks AVX, FMA3 or AVX2")
	}
	rng := rand.New(rand.NewSource(20))

	// The dense GEMM at every level the machine has, against the portable
	// twin on built operands: every row remainder of the 8-row strips, every
	// column remainder of the 16-column ones (0; 8, one 4x8 strip; 1..7, edge
	// columns; 9..15, both), tiles of one step, one short of full and full,
	// products of several k-tiles (summed aside, the accumulator holding
	// values), the left operand as stored (NN) and read transposed through
	// swapped strides (TN, against the product with the built transpose), in
	// the three regimes of special values, into a pre-filled accumulator, into
	// none, and stored into a NaN-filled block (MatMulInto), which must give
	// the bits of adding onto a zeroed one: a cell added instead of stored
	// reads NaN.
	t.Run("gemm", func(t *testing.T) {
		type shape struct {
			m, k, n int
			regimes []int
		}
		var shapes []shape
		for i, sh := range [][3]int{{4, 64, 8}, {64, 64, 64}, {130, 100, 121}, {3, 5, 7}, {4, 1, 8}, {8, 130, 16}} {
			shapes = append(shapes, shape{sh[0], sh[1], sh[2], specialRegimes[i%3:][:1]})
		}
		shapes = append(shapes, shape{65, 67, 66, specialRegimes}, shape{72, 130, 80, specialRegimes})
		for r := 0; r < 8; r++ {
			for c := 0; c < 16; c++ {
				for i, k := range []int{1, 63, 64} { // each remainder pair meets each regime, at one k
					shapes = append(shapes, shape{8 + r, k, 16 + c, specialRegimes[(r+c+i)%3:][:1]})
				}
			}
		}
		type product struct {
			a, at, b, acc, want, wantFresh *Dense
			every                          int
		}
		var products []product // the operands, and what the portable kernel makes of them
		for _, sh := range shapes {
			for _, every := range sh.regimes {
				fill := func(n int) []float64 { return specialEvery(rng, make([]float64, n), every, unit, anyOdd) }
				a, b := NewDenseData(sh.m, sh.k, fill(sh.m*sh.k)), NewDenseData(sh.k, sh.n, fill(sh.k*sh.n))
				acc := NewDenseData(sh.m, sh.n, fill(sh.m*sh.n)) // a product summed aside and added once
				pr := product{a: a, at: Transpose(a).(*Dense), b: b, acc: acc, want: acc.Clone().(*Dense), every: every}
				portably(func() {
					MatMulAccWith(nil, pr.want, a, b)
					pr.wantFresh = MatMulAccWith(nil, NewDense(sh.m, sh.n), a, b)
				})
				products = append(products, pr)
			}
		}
		run := func(t *testing.T, level int) {
			atLevel(level, func() {
				for _, pr := range products {
					nn, tn := pr.acc.Clone().(*Dense), pr.acc.Clone().(*Dense)
					MatMulAccWith(nil, nn, pr.a, pr.b)
					MatMulTNAccWith(nil, tn, pr.at, pr.b)
					nnFresh, tnFresh := MatMulAccWith(nil, nil, pr.a, pr.b), MatMulTNInto(nil, NewDense(pr.acc.Rows, pr.acc.Cols), pr.at, pr.b)
					nnStored, tnStored := MatMulInto(nil, nanDense(pr.acc.Rows, pr.acc.Cols), pr.a, pr.b), MatMulTNInto(nil, nanDense(pr.acc.Rows, pr.acc.Cols), pr.at, pr.b)
					for name, pair := range map[string][2]*Dense{"NN": {nn, pr.want}, "TN": {tn, pr.want}, "NN, no accumulator": {nnFresh, pr.wantFresh}, "TN, no accumulator": {tnFresh, pr.wantFresh},
						"NN, stored": {nnStored, pr.wantFresh}, "TN, stored": {tnStored, pr.wantFresh}} {
						if !sameFloats(pair[0].Data, pair[1].Data) {
							t.Fatalf("%dx%dx%d, an odd value every %d, %s: differs from the portable kernel on built operands", pr.a.Rows, pr.a.Cols, pr.b.Cols, pr.every, name)
						}
					}
				}
			})
		}
		t.Run("portable", func(t *testing.T) { run(t, levelPortable) }) // the twin's own TN against its NN
		for _, lv := range asmLevels {
			t.Run(lv.name, func(t *testing.T) {
				if simdLevel < lv.level {
					t.Skip(lv.lacks)
				}
				run(t, lv.level)
			})
		}
	})

	// The strip kernels: every length, windows at each 8-byte phase of a
	// 32-byte line, out of place and in place (the masked pass rewrites its
	// values buffer), operands in special's regimes plus each kernel's edges.
	// Compared by bit pattern, NaN payloads too — log and exp return a NaN
	// operand itself — against the registered scalar form, which is also what
	// the strip runs with the assembly off.
	t.Run("unary", func(t *testing.T) {
		for _, k := range stripKernels {
			u := unaryFuncs[k.name]
			odd := func(rng *rand.Rand) float64 {
				if rng.Intn(2) == 0 {
					return k.edges[rng.Intn(len(k.edges))]
				}
				return oddValues[rng.Intn(len(oddValues))]
			}
			for n := 0; n <= 70; n++ {
				for phase := 0; phase < 4; phase++ {
					src, _, _ := phased(n, phase)
					specialFrom(rng, src, k.ordinary, odd)
					dst, whole, off := phased(n, (phase+n)%4)
					special(rng, whole)
					before := append([]float64(nil), whole...)
					u.Strip(dst, src)
					in := append(src[:0:0], src...)
					u.Strip(in, in)
					for i, x := range src {
						if w := math.Float64bits(u.F(x)); math.Float64bits(dst[i]) != w || math.Float64bits(in[i]) != w {
							t.Fatalf("%s(%v), n=%d phase=%d: scalar form %x, assembly %x, assembly in place %x", k.name, x, n, phase, w, math.Float64bits(dst[i]), math.Float64bits(in[i]))
						}
					}
					for i := range whole {
						if (i < off || i >= off+n) && math.Float64bits(whole[i]) != math.Float64bits(before[i]) {
							t.Fatalf("%s, n=%d phase=%d: the kernel wrote outside its destination", k.name, n, phase)
						}
					}
				}
			}
		}
	})
}

// nanDense is a rows x cols block of NaN: an accumulator whose values a
// kernel that stores must not read.
func nanDense(rows, cols int) *Dense {
	d := NewDense(rows, cols)
	for i := range d.Data {
		d.Data[i] = math.NaN()
	}
	return d
}

// TestSpMMFormsAgree holds the two sparse x dense row kernels to their
// reference formulas, bit for bit: CSR x dense sums each output element from
// +0 over the row's stored values in order (a rounded multiply, then an add)
// and adds the sum to acc once; dense x CSR adds each rounded product into
// accT in place, b's rows ascending. Every width 1..200 — every mix of the
// AVX-512 forms' 64-, 32-, 16- and 8-column strips and masked tails, of the
// AVX2 forms' 16- and 4-column strips and single columns, and of the kernel
// threads' 64-column splits — over random row counts with rows left empty,
// acc given, absent and stored into NaN (MatMulInto: +0 + s), special
// values; the portable twin and each assembly
// level the machine has, each run on a pool of 1, 2 and 3 kernel threads.
func TestSpMMFormsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	pools := []*parallel.Pool{nil, parallel.New(1, 1), parallel.New(2, 1), parallel.New(3, 1)}
	levels := append([]kernelLevel{{name: "portable", level: levelPortable}}, asmLevels...)
	randCSR := func(rows, cols int) *CSR {
		d := NewDense(rows, cols)
		density := rng.Float64() * 0.5
		for i := 0; i < rows; i++ {
			if rng.Intn(4) == 0 {
				continue // an empty row
			}
			for j := 0; j < cols; j++ {
				if rng.Float64() < density {
					d.Data[i*cols+j] = special(rng, make([]float64, 1))[0]
				}
			}
		}
		return ToCSR(d)
	}
	for n := 1; n <= 200; n++ {
		rows, inner := 1+rng.Intn(40), 1+rng.Intn(40)
		x := randCSR(rows, inner)
		y := NewDenseData(inner, n, special(rng, make([]float64, inner*n)))
		acc := NewDenseData(rows, n, special(rng, make([]float64, rows*n)))
		want, wantFresh := acc.Clone().(*Dense), NewDense(rows, n)
		for i := 0; i < rows; i++ {
			cols, vals := x.RowNNZ(i)
			for j := 0; j < n; j++ {
				var s float64
				for q, k := range cols {
					s += float64(vals[q] * y.At(k, j))
				}
				want.Data[i*n+j] += s
				wantFresh.Data[i*n+j] += s
			}
		}
		a := NewDenseData(rows, n, special(rng, make([]float64, rows*n))) // K = rows, m = n
		accT := NewDenseData(inner, n, special(rng, make([]float64, inner*n)))
		wantT := accT.Clone().(*Dense)
		for k := 0; k < rows; k++ {
			cols, vals := x.RowNNZ(k)
			for q, j := range cols {
				for c := 0; c < n; c++ {
					wantT.Data[j*n+c] += float64(vals[q] * a.At(k, c))
				}
			}
		}
		for _, lv := range levels {
			if simdLevel < lv.level {
				continue
			}
			atLevel(lv.level, func() {
				for threads, p := range pools {
					got := MatMulAccWith(p, acc.Clone().(*Dense), x, y)
					gotFresh := MatMulAccWith(p, nil, x, y)
					gotStored := MatMulInto(p, nanDense(rows, n), x, y)
					gotT := accT.Clone().(*Dense)
					MatMulTransAccWith(p, gotT, a, x)
					for name, pair := range map[string][2]*Dense{"csr x dense": {got, want}, "csr x dense, no accumulator": {gotFresh, wantFresh},
						"csr x dense, stored": {gotStored, wantFresh}, "dense x csr": {gotT, wantT}} {
						if !sameFloats(pair[0].Data, pair[1].Data) {
							t.Fatalf("%s, %s, %d threads, %dx%d (%d stored) and %d columns: differs from the reference formula",
								name, lv.name, threads, rows, inner, x.NNZ(), n)
						}
					}
				}
			})
		}
	}
}

// TestSparseProductAddsOnce pins the arms of MatMulAccWith, and
// MatMulTNAccWith, to their contract where only the sign of a zero tells:
// acc += a x b has the bits of acc + MatMulWith(a, b), element by element,
// when acc holds -0 and +0 and products underflow to ±0, cancel, or meet an
// empty row — at every level the machine has. Filling a row in place from
// acc's -0 would keep a -0 that adding the product's +0 does not; so would
// adding a tile sum that rounded to -0 (row 5 against y's row 3: fma(-1e-300,
// 1e-300, +0) is -0) onto it as it is; the last arm makes every tile sum -0,
// in every lane of the GEMM's 8x16, 4x8 and 4x4 strips and its edge rows and
// columns. n = 85 crosses the row kernels' 64-, 16-, 4- and 1-column strips
// (at AVX-512 a 5-column masked tail). Each arm also stores its product into
// a NaN-filled block (MatMulInto, MatMulTNInto), which must give +0 +
// product element by element: a cell added instead of stored reads NaN, and
// one whose sum rounded to -0 stored as it is reads -0.
func TestSparseProductAddsOnce(t *testing.T) {
	negZero := math.Copysign(0, -1)
	const n = 85
	yv := make([]float64, 4*n)
	for j := 0; j < n; j++ {
		yv[j] = []float64{1e-200, 1, 2, 3}[j%4]
		yv[n+j] = []float64{-1e-200, 0, negZero, 1e-200}[j%4]
		yv[2*n+j] = 1
		yv[3*n+j] = []float64{negZero, 1e-300, 5, 0}[j%4]
	}
	y := NewDenseData(4, n, yv)
	xd := NewDenseData(6, 4, []float64{
		-1e-200, 0, 0, 0, // underflows to -0 against y's 1e-200
		0, 1e-200, 0, 0, // ±0 and ±tiny products
		0, 0, 0, 0, // an empty row
		0, 0, 1, 0, // exact products
		1, 0, -1, 0, // 1e-200 - 1 and the like; row 2 of y cancels
		0, 0, 0, -1e-300, // -0 × -1e-300, 1e-300 × -1e-300
	})
	x := ToCSR(xd)
	zv, yzv := make([]float64, 9*4), make([]float64, 4*n)
	for i := 0; i < 9; i++ {
		zv[i*4+3] = -1e-300
	}
	for j := range yzv {
		yzv[j] = 1e-300
	}
	xz, yz := NewDenseData(9, 4, zv), NewDenseData(4, n, yzv)
	repeat := func(rows int, pattern ...float64) []float64 {
		v := make([]float64, rows*n)
		for i := range v {
			v[i] = pattern[i%len(pattern)]
		}
		return v
	}
	arms := []struct {
		name string
		a, b Mat
	}{{"csr x dense", x, y}, {"csr x csr", x, ToCSR(y)}, {"dense x csr", xd, ToCSR(y)}, {"dense x dense", xd, y}, {"dense x dense, every sum -0", xz, yz}}
	for name, pattern := range map[string][]float64{"-0": {negZero}, "+0": {0}, "mixed": {negZero, 0, negZero, 1e-300, -1}} {
		for _, lv := range append([]kernelLevel{{name: "portable", level: levelPortable}}, asmLevels...) {
			if simdLevel < lv.level {
				continue
			}
			atLevel(lv.level, func() {
				check := func(arm string, acc []float64, prod Mat, got *Dense) {
					for e, v := range acc {
						if want := v + prod.At(e/n, e%n); math.Float64bits(got.Data[e]) != math.Float64bits(want) {
							t.Fatalf("%s, %s, acc %s: element (%d, %d) is %v, acc + product is %v", arm, lv.name, name, e/n, e%n, got.Data[e], want)
						}
					}
				}
				for _, arm := range arms {
					rows, _ := arm.a.Dims()
					acc := repeat(rows, pattern...)
					prod := MatMulWith(nil, arm.a, arm.b)
					check(arm.name, acc, prod, MatMulAccWith(nil, NewDenseData(rows, n, slices.Clone(acc)), arm.a, arm.b))
					zero := make([]float64, rows*n)
					check(arm.name+", stored", zero, prod, MatMulInto(nil, nanDense(rows, n), arm.a, arm.b))
					if at, ok := arm.a.(*Dense); ok && !arm.b.IsSparse() {
						check(arm.name+", left operand transposed", acc, prod,
							MatMulTNAccWith(nil, NewDenseData(rows, n, slices.Clone(acc)), Transpose(at).(*Dense), arm.b.(*Dense)))
						check(arm.name+", left operand transposed, stored", zero, prod,
							MatMulTNInto(nil, nanDense(rows, n), Transpose(at).(*Dense), arm.b.(*Dense)))
					}
				}
			})
		}
	}
}

// TestTransposeKernelMatchesPortable holds the dense transpose to a pure
// copy at every level the machine has and every thread count: for every shape
// 1..70 x 1..70 — interiors of whole 8x8 tiles with every ragged edge, and
// none — and the 256x64 and 64x256 blocks GNMF transposes, each a window
// into a larger array at a start 0..7 values in, so rows begin at every
// phase of a cache line, TransposeWith on a pool of 1, 2 and 3 kernel threads
// gives the bits of the portable tiled loop, NaN payloads (a signalling one
// too), -0, ±Inf and subnormals included, and that is t(a).
func TestTransposeKernelMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	sNaN := math.Float64frombits(0x7FF0000000000001)
	odd := func(rng *rand.Rand) float64 {
		if rng.Intn(len(oddValues)+1) == 0 {
			return sNaN
		}
		return anyOdd(rng)
	}
	type shape struct{ r, c int }
	shapes := []shape{{256, 64}, {64, 256}}
	for r := 1; r <= 70; r++ {
		for c := 1; c <= 70; c++ {
			shapes = append(shapes, shape{r, c})
		}
	}
	pools := []*parallel.Pool{nil, parallel.New(2, 1), parallel.New(3, 1)}
	for _, sh := range shapes {
		off := (sh.r + 3*sh.c) % 8
		a := NewDenseData(sh.r, sh.c, specialEvery(rng, make([]float64, off+sh.r*sh.c), 4, unit, odd)[off:])
		var want *Dense
		portably(func() { want = Transpose(a).(*Dense) })
		for i := 0; i < sh.r; i++ {
			for j := 0; j < sh.c; j++ {
				if math.Float64bits(want.Data[j*sh.r+i]) != math.Float64bits(a.Data[i*sh.c+j]) {
					t.Fatalf("%dx%d: the portable transpose's (%d, %d) is not a's (%d, %d)", sh.r, sh.c, j, i, i, j)
				}
			}
		}
		for _, lv := range asmLevels {
			if simdLevel < lv.level {
				continue
			}
			atLevel(lv.level, func() {
				for _, p := range pools {
					got := TransposeWith(p, a).(*Dense)
					for e, v := range got.Data {
						if math.Float64bits(v) != math.Float64bits(want.Data[e]) {
							t.Fatalf("%dx%d, %s, %d threads: element (%d, %d) is %x, the tiled loop's %x", sh.r, sh.c, lv.name, p.Threads(), e/sh.r, e%sh.r, math.Float64bits(v), math.Float64bits(want.Data[e]))
						}
					}
				}
			})
		}
	}
}

// phased returns an n-long window of a fresh array that starts phase*8 bytes
// into a 32-byte line, the array, which extends past both ends, and the
// window's offset in it.
func phased(n, phase int) (win, whole []float64, off int) {
	whole = make([]float64, n+12)
	off = 4
	for (uintptr(unsafe.Pointer(&whole[off]))/8)%4 != uintptr(phase) {
		off++
	}
	return whole[off : off+n : off+n], whole, off
}

// TestSDDMMGroupMatchesPortable holds the masked SDDMM to dot's bits at every
// level the machine has: a group of terms sharing the left operand, run as
// one call, must give what each term run alone on the portable path gives.
// It covers k = 1..130 (every k%8 tail), groups of 1..9 terms, rows empty in
// every term, empty blocks, terms narrower than the others (an edge block),
// operands that are windows of larger arrays, a second product accumulated
// over another k block into the same values, and any row range of the whole.
func TestSDDMMGroupMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const rows = 9
	mask := func(kind, cols int) *CSR {
		switch kind % 4 {
		case 0: // rows 0, 4 and 5 empty; the last row ends at nnz
			d := NewDense(rows, cols)
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					if i != 0 && i != 4 && i != 5 && (i*j+kind)%3 != 1 {
						d.Data[i*cols+j] = 1
					}
				}
			}
			return ToCSR(d)
		case 1:
			return RandomSparse(rows, cols, 0.15, 1, 2, int64(kind))
		case 2:
			return NewCSR(rows, cols)
		}
		return ToCSR(RandomDense(rows, cols, 1, 2, int64(kind)))
	}
	type step struct {
		a   *Dense
		bts []*Dense
	}
	run := func(level int, masks []*CSR, accs [][]float64, steps []step, group bool) [][]float64 {
		out := make([][]float64, len(accs))
		for j := range accs {
			out[j] = slices.Clone(accs[j])
		}
		atLevel(level, func() {
			for _, st := range steps {
				terms := make([]MaskedTerm, len(masks))
				for j := range masks {
					terms[j] = MaskedTerm{Mask: masks[j], Acc: out[j], Bt: st.bts[j]}
				}
				if group {
					MaskedMatMulGroupAccWith(nil, st.a, terms)
					continue
				}
				for _, tm := range terms {
					MaskedMatMulAccWith(nil, tm.Mask, tm.Acc, st.a, tm.Bt)
				}
			}
		})
		return out
	}
	levels := append([]kernelLevel{{"portable", levelPortable, ""}}, asmLevels...)
	for k := 1; k <= 130; k++ {
		for g := 1; g <= 9; g++ {
			masks, accs := make([]*CSR, g), make([][]float64, g)
			var steps []step
			for _, kk := range []int{k, 1 + k%5} {
				st := step{a: NewDenseData(rows, kk, within(rng, rows*kk, 3))}
				for j := range masks {
					cols := 11
					if j == g-1 && g > 1 {
						cols = 5 // the edge block
					}
					if masks[j] == nil {
						masks[j] = mask(j+k, cols)
						accs[j] = within(rng, masks[j].NNZ(), 1)
					}
					st.bts = append(st.bts, NewDenseData(cols, kk, within(rng, cols*kk, 5)))
				}
				steps = append(steps, st)
			}
			want := run(levelPortable, masks, accs, steps, false)
			for _, lv := range levels {
				if simdLevel < lv.level {
					continue
				}
				if got := run(lv.level, masks, accs, steps, true); !slices.EqualFunc(got, want, sameFloats) {
					t.Fatalf("k=%d, %d terms, %s: the group differs from each term run alone on the portable path", k, g, lv.name)
				}
			}
			// Any row range is that range of the whole, and writes nothing else.
			whole := run(simdLevel, masks, accs, steps[:1], true)
			for lo := 0; lo < rows; lo += 4 {
				hi := min(lo+4, rows)
				part := make([]MaskedTerm, g)
				for j := range masks {
					part[j] = MaskedTerm{Mask: masks[j], Acc: slices.Clone(accs[j]), Bt: steps[0].bts[j]}
				}
				sddmmGroup(part, lo, hi, steps[0].a)
				for j, m := range masks {
					qLo, qHi := m.RowPtr[lo], m.RowPtr[hi]
					if p := part[j].Acc; !sameFloats(p[qLo:qHi], whole[j][qLo:qHi]) || !sameFloats(p[:qLo], accs[j][:qLo]) || !sameFloats(p[qHi:], accs[j][qHi:]) {
						t.Fatalf("k=%d, %d terms, term %d: rows [%d, %d) computed alone differ, or wrote outside their positions", k, g, j, lo, hi)
					}
				}
			}
		}
	}
}

// TestDotIsFourPartialSums pins the SDDMM's arithmetic itself, against a
// spelled-out evaluation: lanes k%4, the tail into lane 0, pairwise combine.
func TestDotIsFourPartialSums(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for k := 1; k <= 70; k++ {
		x, y := special(rng, make([]float64, k)), special(rng, make([]float64, k))
		var s [4]float64
		for i := 0; i < k; i++ {
			lane := i % 4
			if i >= k&^3 {
				lane = 0
			}
			s[lane] += x[i] * y[i]
		}
		want := []float64{(s[0] + s[1]) + (s[2] + s[3])}
		mask := ToCSR(NewDenseData(1, 1, []float64{1}))
		a, bt := NewDenseData(1, k, x), NewDenseData(1, k, y)
		asm, twin := []float64{0}, []float64{0}
		MaskedMatMulAccWith(nil, mask, asm, a, bt)
		portably(func() { MaskedMatMulAccWith(nil, mask, twin, a, bt) })
		if !sameFloats(asm, want) || !sameFloats(twin, want) {
			t.Errorf("k=%d: dot = %v (assembly on), %v (off); four partial sums give %v", k, asm[0], twin[0], want[0])
		}
	}
}

// BenchmarkUnaryStrip times log, exp and sigmoid over a 4096-value strip, in
// ns per value: the assembly kernel, and the strip with the assembly off —
// the scalar form called through the registry's function value once per
// value, which is what a strip cost before it had kernels.
func BenchmarkUnaryStrip(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewSource(23))
	for _, k := range stripKernels {
		u := unaryFuncs[k.name]
		src, dst := make([]float64, n), make([]float64, n)
		for i := range src {
			if src[i] = 40*rng.Float64() - 20; k.name == "log" {
				src[i] = 0.001 + 10*rng.Float64()
			}
		}
		arm := func(name string, fn func()) {
			b.Run(k.name+"/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fn()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/value")
			})
		}
		arm("assembly", func() { u.Strip(dst, src) })
		arm("portable", func() { portably(func() { u.Strip(dst, src) }) })
	}
}

// BenchmarkMatMulDenseDense times the dense product (m x k times k x n) of a
// square block and at the widths of the repo benchmark's dense operands — the
// AutoEncoder's 128-wide blocks under a 256-wide batch, and GNMF's 64-wide
// factors against 256-wide blocks — with the kernels held at each level
// (MatMul, so a fresh result block is allocated and cleared inside the timed
// call), and at the machine's own level the tile loops alone: acc adds the
// product into one block that is told fresh every time, which spares the
// scan and the side panel; the sums that pile up in it are never read.
// BenchmarkFMAPeak states what each width could do.
func BenchmarkMatMulDenseDense(b *testing.B) {
	levels := append([]kernelLevel{{name: "portable", level: levelPortable}}, asmLevels...)
	for _, sh := range []struct{ m, k, n int }{{256, 256, 256}, {128, 128, 256}, {256, 64, 256}} {
		x, y := RandomDense(sh.m, sh.k, -1, 1, 1), RandomDense(sh.k, sh.n, -1, 1, 2)
		name, nbytes, flops := fmt.Sprintf("%dx%dx%d/", sh.m, sh.k, sh.n), x.SizeBytes()+y.SizeBytes()+8*int64(sh.m*sh.n), MatMulFlops(x, y)
		for _, lv := range levels {
			if simdLevel < lv.level {
				b.Run(name+lv.name, func(b *testing.B) { b.Skip(lv.lacks) })
				continue
			}
			atLevel(lv.level, func() { benchKernel(b, name+lv.name, nbytes, flops, func() { sinkMat = MatMul(x, y) }) })
		}
		acc := NewDense(sh.m, sh.n)
		benchKernel(b, name+"acc", nbytes, flops, func() { matMulDD(nil, acc, strided{x.Data, x.Cols, 1}, y, true) })
	}
}

// BenchmarkSpMMPanel times both sparse x dense orientations over a panel of
// GNMF's blocks — sixteen 256x256 CSR blocks at density 0.01 — against 256x64
// factor blocks, at each level, into one accumulator per orientation: X %*%
// t(U) as CSR x dense (MatMulAccWith), and t(V) %*% X as the dense x CSR
// kernel on V's untransposed block (MatMulTransAccWith). GFLOP/s counts the
// multiply-adds the products need, 2 * 64 per stored value.
func BenchmarkSpMMPanel(b *testing.B) {
	const blocks = 16
	xs := make([]*CSR, blocks)
	var nbytes, nnz int64
	for i := range xs {
		xs[i] = RandomSparse(benchBlock, benchBlock, 0.01, 1, 5, int64(10+i))
		nbytes += xs[i].SizeBytes()
		nnz += int64(xs[i].NNZ())
	}
	u, v := RandomDense(benchBlock, benchK, 0.1, 0.9, 4), RandomDense(benchBlock, benchK, 0.1, 0.9, 5)
	nbytes += u.SizeBytes() + v.SizeBytes()
	acc, accT := NewDense(benchBlock, benchK), NewDense(benchBlock, benchK)
	flops := 2 * benchK * nnz
	for _, lv := range append([]kernelLevel{{name: "portable", level: levelPortable}}, asmLevels...) {
		for _, arm := range []struct {
			name string
			run  func(x *CSR)
		}{
			{"csr-dense", func(x *CSR) { MatMulAccWith(nil, acc, x, u) }},
			{"dense-csr", func(x *CSR) { MatMulTransAccWith(nil, accT, v, x) }},
		} {
			name := arm.name + "/" + lv.name
			if simdLevel < lv.level {
				b.Run(name, func(b *testing.B) { b.Skip(lv.lacks) })
				continue
			}
			atLevel(lv.level, func() {
				benchKernel(b, name, nbytes, flops, func() {
					for _, x := range xs {
						arm.run(x)
					}
				})
			})
		}
	}
}

// BenchmarkFMAPeak times fused multiply-adds on registers alone, at YMM and
// at ZMM width: the ceiling of one core, which BenchmarkMatMulDenseDense's
// GFLOP/s are a share of.
func BenchmarkFMAPeak(b *testing.B) {
	const rounds = 1 << 16
	for _, arm := range []struct {
		name        string
		level       int
		fmas, lanes int64
		run         func(n int)
	}{{"ymm", levelAVX2, 12, 4, fmaPeakAVX2}, {"zmm", levelAVX512, 16, 8, fmaPeakAVX512}} {
		b.Run(arm.name, func(b *testing.B) {
			if simdLevel < arm.level {
				b.Skip("the CPU or the OS lacks this width")
			}
			for i := 0; i < b.N; i++ {
				arm.run(rounds)
			}
			b.ReportMetric(float64(2*arm.fmas*arm.lanes*rounds)*float64(b.N)/1e9/b.Elapsed().Seconds(), "GFLOP/s")
		})
	}
}

// TestDenseNNZKernelMatchesPortable holds (*Dense).NNZ to one count at every
// level the machine has: for every length 0–67 (the 32- and 8-value steps of
// nnzAVX512 and every tail) at every start 0–7 values into a larger array,
// over values where a wrong predicate shows — -0, NaN payloads, ±Inf,
// subnormals — in each of special's regimes and with every value odd, it
// counts what nnzPortable counts, and that is the number of values v != 0.
func TestDenseNNZKernelMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	check := func(t *testing.T, level int) {
		atLevel(level, func() {
			for n := 0; n <= 67; n++ {
				for off := 0; off < 8; off++ {
					for _, every := range append(specialRegimes, 1) {
						x := specialEvery(rng, make([]float64, off+n+9), every, unit, anyOdd)[off : off+n : off+n]
						want := 0
						for _, v := range x {
							if v != 0 {
								want++
							}
						}
						if p := nnzPortable(x); p != want {
							t.Fatalf("n=%d off=%d: nnzPortable = %d, want %d", n, off, p, want)
						}
						if got := NewDenseData(1, n, x).NNZ(); got != want {
							t.Fatalf("n=%d off=%d every=%d: NNZ = %d, want %d (values %v)", n, off, every, got, want, x)
						}
					}
				}
			}
		})
	}
	t.Run("portable", func(t *testing.T) { check(t, levelPortable) })
	t.Run("avx512", func(t *testing.T) {
		if simdLevel < levelAVX512 {
			t.Skip("CPU or OS lacks AVX-512F: the compare-and-popcount cannot run here")
		}
		check(t, levelAVX512)
	})
}

var sinkNNZ int

// BenchmarkDenseNNZ counts a 256x256 dense block — a result block of the
// repository benchmark's GNMF and NMF workloads — at each level, in bytes
// scanned per second.
func BenchmarkDenseNNZ(b *testing.B) {
	d := RandomDense(256, 256, -1, 1, 1)
	for _, lv := range append([]kernelLevel{{"portable", levelPortable, ""}}, asmLevels[1:]...) {
		b.Run(lv.name, func(b *testing.B) {
			if simdLevel < lv.level {
				b.Skip(lv.lacks)
			}
			atLevel(lv.level, func() {
				b.SetBytes(d.SizeBytes())
				for i := 0; i < b.N; i++ {
					sinkNNZ = d.NNZ()
				}
			})
		})
	}
}
