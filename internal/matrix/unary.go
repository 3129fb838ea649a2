package matrix

import "math"

// UnaryFn is an element-wise function of one value. F is its scalar form,
// which the cell walks call and which defines the function. Strip, where a
// registered function has one, is the same function over a run of values:
// dst[j] = F(src[j]) for every j < len(dst), bit for bit, with dst either src
// itself or disjoint from it.
type UnaryFn struct {
	F     func(float64) float64
	Strip func(dst, src []float64)
}

// over applies u to src into dst: one call of the strip form, or — the one
// place a function is still called per value of a strip — F in a loop.
func (u UnaryFn) over(dst, src []float64) {
	src = src[:len(dst)]
	if u.Strip != nil {
		u.Strip(dst, src)
		return
	}
	for j, v := range src {
		dst[j] = u.F(v)
	}
}

// withKernel gives f — math.Log, math.Exp or the sigmoid over math.Exp — the
// strip form that runs its assembly kernel (unary_amd64.s, four values per
// step). The kernel's arithmetic is the one math.Log and math.Exp run on
// amd64 with FMA3, which levelAVX2 requires, so where the kernel runs it has f's
// bits. It has a fast range — log: positive normal numbers; exp and sigmoid:
// |x| <= 708, where 2^k is a normal number — and stops at a group of four
// holding a value outside it; f, which owns the special cases, finishes that
// group, the tail of the strip, and on a machine without the kernel the whole
// strip.
func withKernel(f func(float64) float64, kernel int, asm func(dst, src *float64, n int) int) UnaryFn {
	return UnaryFn{F: f, Strip: func(dst, src []float64) {
		j := 0
		if n4 := len(dst) &^ 3; simdLevel >= levelAVX2 && n4 > 0 {
			countKernel(kernel)
			for j < n4 {
				j += asm(&dst[j], &src[j], n4-j)
				if j < n4 {
					for end := j + 4; j < end; j++ {
						dst[j] = f(src[j])
					}
				}
			}
		}
		for ; j < len(dst); j++ {
			dst[j] = f(src[j])
		}
	}}
}

// The algebraic functions and their strip forms: each loop calls the scalar
// form, which the compiler inlines, so a function is written once and a strip
// of it is a loop without a call — and, an expression of one rounding per
// operation with no product feeding an add, one no compiler may fuse, so the
// two forms agree bit for bit on every architecture.

func sq(x float64) float64    { return x * x }
func neg(x float64) float64   { return -x }
func recip(x float64) float64 { return 1 / x }
func relu(x float64) float64  { return math.Max(0, x) }

// sigmoidGrad computes s*(1-s) for an already-activated value s.
func sigmoidGrad(s float64) float64 { return s * (1 - s) }

func absStrip(dst, src []float64) {
	for j, v := range src[:len(dst)] {
		dst[j] = math.Abs(v)
	}
}

func sqStrip(dst, src []float64) {
	for j, v := range src[:len(dst)] {
		dst[j] = sq(v)
	}
}

func negStrip(dst, src []float64) {
	for j, v := range src[:len(dst)] {
		dst[j] = neg(v)
	}
}

func recipStrip(dst, src []float64) {
	for j, v := range src[:len(dst)] {
		dst[j] = recip(v)
	}
}

func reluStrip(dst, src []float64) {
	for j, v := range src[:len(dst)] {
		dst[j] = relu(v)
	}
}

func sigmoidGradStrip(dst, src []float64) {
	for j, v := range src[:len(dst)] {
		dst[j] = sigmoidGrad(v)
	}
}
