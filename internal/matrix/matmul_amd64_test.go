//go:build amd64

package matrix

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// portably runs fn with the assembly kernels switched off.
func portably(fn func()) {
	defer func(was bool) { hasAVX = was }(hasAVX)
	hasAVX = false
	fn()
}

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
	return specialFrom(rng, s, func(rng *rand.Rand) float64 { return 2*rng.Float64() - 1 }, func(rng *rand.Rand) float64 { return oddValues[rng.Intn(len(oddValues))] })
}

// specialFrom is special over other draws of ordinary and odd values.
func specialFrom(rng *rand.Rand, s []float64, ordinary, odd func(*rand.Rand) float64) []float64 {
	every := []int{0, 32, 4}[rng.Intn(3)]
	for i := range s {
		if s[i] = ordinary(rng); every > 0 && rng.Intn(every) == 0 {
			s[i] = odd(rng)
		}
	}
	return s
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
	if !hasAVX {
		t.Skip("CPU lacks AVX or FMA3")
	}
	rng := rand.New(rand.NewSource(20))

	t.Run("gemm", func(t *testing.T) {
		shapes := []struct{ m, k, n int }{
			{4, 64, 8}, {64, 64, 64}, {65, 67, 66}, {130, 100, 121}, {3, 5, 7}, {4, 1, 8}, {8, 130, 16},
		}
		for _, sh := range shapes {
			for _, odd := range []bool{false, true} {
				a, b, acc := RandomDense(sh.m, sh.k, -1, 1, int64(sh.m+sh.k)), RandomDense(sh.k, sh.n, -1, 1, int64(sh.k+sh.n)), NewDense(sh.m, sh.n)
				if odd {
					special(rng, a.Data)
					special(rng, b.Data)
					special(rng, acc.Data) // a product summed aside and added once
				}
				asm, twin := acc.Clone().(*Dense), acc.Clone().(*Dense)
				MatMulAccWith(nil, asm, a, b)
				portably(func() { MatMulAccWith(nil, twin, a, b) })
				if !sameFloats(asm.Data, twin.Data) {
					t.Errorf("%dx%dx%d (special values: %v): assembly and portable kernels disagree", sh.m, sh.k, sh.n, odd)
				}
			}
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
					sddmmRows(mask, lo, minInt(lo+4, rows), a, bt, part)
					qLo, qHi := mask.RowPtr[lo], mask.RowPtr[minInt(lo+4, rows)]
					if !sameFloats(part[qLo:qHi], asm[qLo:qHi]) || !sameFloats(part[:qLo], acc[:qLo]) || !sameFloats(part[qHi:], acc[qHi:]) {
						t.Fatalf("k=%d, %s mask: rows [%d, %d) computed alone differ, or wrote outside their positions", k, name, lo, lo+4)
					}
				}
			}
		}
	})

	t.Run("axpy", func(t *testing.T) {
		for n := 0; n <= 70; n++ {
			for _, s := range []float64{0.75, -3, 0, math.Copysign(0, -1), 0x1p-1040, 0x1p600, math.Inf(1), math.NaN()} {
				x, dst := within(rng, n, 2), within(rng, n+3, 4) // dst is longer than x: its tail must not change
				asm, twin := append([]float64(nil), dst...), append([]float64(nil), dst...)
				axpy(asm, s, x)
				portably(func() { axpy(twin, s, x) })
				if !sameFloats(asm, twin) || !sameFloats(asm[n:], dst[n:]) {
					t.Fatalf("n=%d s=%v: assembly and portable kernels disagree", n, s)
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
