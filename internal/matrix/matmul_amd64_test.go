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
	// the three regimes of special values, into a pre-filled accumulator and
	// into none.
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
					pr.wantFresh = MatMulAccWith(nil, nil, a, b)
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
					nnFresh, tnFresh := MatMulAccWith(nil, nil, pr.a, pr.b), MatMulTNAccWith(nil, nil, pr.at, pr.b)
					for name, pair := range map[string][2]*Dense{"NN": {nn, pr.want}, "TN": {tn, pr.want}, "NN, no accumulator": {nnFresh, pr.wantFresh}, "TN, no accumulator": {tnFresh, pr.wantFresh}} {
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

	t.Run("sddmm", func(t *testing.T) {
		const rows, cols = 9, 11
		masks := map[string]*CSR{
			"empty-rows": ToCSR(NewDenseData(rows, cols, func() []float64 { // rows 0, 4 and 5 empty; the last row ends at nnz
				d := make([]float64, rows*cols)
				for i := 0; i < rows; i++ {
					for j := 0; j < cols; j++ {
						if i != 0 && i != 4 && i != 5 && (i*j)%3 != 1 {
							d[i*cols+j] = 1
						}
					}
				}
				return d
			}())),
			"empty-last-rows": RandomSparse(rows, cols, 0.1, 1, 2, 3),
			"empty-block":     NewCSR(rows, cols),
			"full":            ToCSR(RandomDense(rows, cols, 1, 2, 4)),
		}
		for k := 1; k <= 70; k++ {
			for name, mask := range masks {
				a := NewDenseData(rows, k, within(rng, rows*k, 3))
				bt := NewDenseData(cols, k, within(rng, cols*k, 5))
				acc := within(rng, mask.NNZ(), 1)
				asm, twin := append([]float64(nil), acc...), append([]float64(nil), acc...)
				MaskedMatMulAccWith(nil, mask, asm, a, bt)
				portably(func() { MaskedMatMulAccWith(nil, mask, twin, a, bt) })
				if !sameFloats(asm, twin) {
					t.Fatalf("k=%d, %s mask: assembly and portable kernels disagree", k, name)
				}
				for lo := 0; lo < rows; lo += 4 { // any row range is that range of the whole
					part := append([]float64(nil), acc...)
					sddmmRows(mask, lo, min(lo+4, rows), a, bt, part)
					qLo, qHi := mask.RowPtr[lo], mask.RowPtr[min(lo+4, rows)]
					if !sameFloats(part[qLo:qHi], asm[qLo:qHi]) || !sameFloats(part[:qLo], acc[:qLo]) || !sameFloats(part[qHi:], acc[qHi:]) {
						t.Fatalf("k=%d, %s mask: rows [%d, %d) computed alone differ, or wrote outside their positions", k, name, lo, lo+4)
					}
				}
			}
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

// TestSpMMFormsAgree holds the two sparse x dense row kernels to their
// reference formulas, bit for bit: CSR x dense sums each output element from
// +0 over the row's stored values in order (a rounded multiply, then an add)
// and adds the sum to acc once; dense x CSR adds each rounded product into
// accT in place, b's rows ascending. Random widths 1..200 (so every mix of
// 16-column strips, 4-column strips and single columns), rows left empty,
// acc given and absent, special values; the assembly form and the portable
// twin, each run on a pool of 1, 2 and 3 kernel threads.
func TestSpMMFormsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	pools := []*parallel.Pool{nil, parallel.New(1, 1), parallel.New(2, 1), parallel.New(3, 1)}
	levels := []kernelLevel{{name: "portable", level: levelPortable}, asmLevels[0]}
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
	for trial := 0; trial < 120; trial++ {
		rows, inner, n := 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(200)
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
					gotT := accT.Clone().(*Dense)
					MatMulTransAccWith(p, gotT, a, x)
					for name, pair := range map[string][2]*Dense{"csr x dense": {got, want}, "csr x dense, no accumulator": {gotFresh, wantFresh}, "dense x csr": {gotT, wantT}} {
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

// TestSparseProductAddsOnce pins the sparse arms of MatMulAccWith to their
// contract where only the sign of a zero tells: acc += a x b has the bits of
// acc + MatMulWith(a, b), element by element, when acc holds -0 and +0 and
// products underflow to ±0, cancel, or meet an empty row — at every level
// the machine has. Filling a row in place from acc's -0 would keep a -0 that
// adding the product's +0 does not.
func TestSparseProductAddsOnce(t *testing.T) {
	negZero := math.Copysign(0, -1)
	const n = 21 // a 16-column strip, a 4-column one and a single column
	yv := make([]float64, 4*n)
	for j := 0; j < n; j++ {
		yv[j] = []float64{1e-200, 1, 2, 3}[j%4]
		yv[n+j] = []float64{-1e-200, 0, negZero, 1e-200}[j%4]
		yv[2*n+j] = 1
		yv[3*n+j] = []float64{negZero, 1e-300, 5, 0}[j%4]
	}
	y := NewDenseData(4, n, yv)
	x := ToCSR(NewDenseData(6, 4, []float64{
		-1e-200, 0, 0, 0, // underflows to -0 against y's 1e-200
		0, 1e-200, 0, 0, // ±0 and ±tiny products
		0, 0, 0, 0, // an empty row
		0, 0, 1, 0, // exact products
		1, 0, -1, 0, // 1e-200 - 1 and the like; row 2 of y cancels
		0, 0, 0, -1e-300, // -0 × -1e-300, 1e-300 × -1e-300
	}))
	repeat := func(pattern ...float64) []float64 {
		v := make([]float64, 6*n)
		for i := range v {
			v[i] = pattern[i%len(pattern)]
		}
		return v
	}
	for name, acc := range map[string][]float64{"-0": repeat(negZero), "+0": repeat(0), "mixed": repeat(negZero, 0, negZero, 1e-300, -1)} {
		for _, lv := range append([]kernelLevel{{name: "portable", level: levelPortable}}, asmLevels...) {
			if simdLevel < lv.level {
				continue
			}
			atLevel(lv.level, func() {
				for arm, b := range map[string]Mat{"csr x dense": y, "csr x csr": ToCSR(y)} {
					prod := MatMulWith(nil, x, b)
					got := MatMulAccWith(nil, NewDenseData(6, n, slices.Clone(acc)), x, b)
					for e, v := range acc {
						if want := v + prod.At(e/n, e%n); math.Float64bits(got.Data[e]) != math.Float64bits(want) {
							t.Fatalf("%s, %s, acc %s: element (%d, %d) is %v, acc + product is %v", arm, lv.name, name, e/n, e%n, got.Data[e], want)
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
