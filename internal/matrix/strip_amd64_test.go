//go:build amd64

package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// subnormalPairs are operand pairs whose result under each operator is a
// subnormal number, which a flushing strip stores as +0.
var subnormalPairs = map[BinOp][][2]float64{
	Add: {{0x1.8p-1022, -0x1p-1022}, {-0x1.8p-1022, 0x1.0000000000001p-1022}},
	Sub: {{0x1.8p-1022, 0x1p-1022}, {0x1p-1022, 0x1.8p-1022}},
	Mul: {{0x1p-540, 0x1p-540}, {-0x1p-600, 0x1p-430}},
	Div: {{0x1p-1000, 0x1p30}, {-0x1p-520, 0x1p520}},
}

// stripOperands draws n values of x and y for op: ordinary values, and in
// special's regimes -0, ±Inf, NaN, subnormals and other odd values, and
// pairs whose result is subnormal.
func stripOperands(rng *rand.Rand, op BinOp, n int) (x, y []float64) {
	x, y = special(rng, make([]float64, n)), special(rng, make([]float64, n))
	pairs := subnormalPairs[op]
	for j := range x {
		if len(pairs) > 0 && rng.Intn(6) == 0 {
			p := pairs[rng.Intn(len(pairs))]
			x[j], y[j] = p[0], p[1]
		}
	}
	return x, y
}

// stripWant is what a strip stores: r, flushed when flush is set.
func stripWant(r float64, flush bool) float64 {
	if flush && math.Float64bits(r)&(0x7ff<<52) == 0 {
		return 0
	}
	return r
}

// TestStripKernelsMatchPortable holds the element-wise strips — combine, its
// scalar form combineScalar (operand on either side), fill and flushStrip,
// each flushing and not — to their formulas, bit for bit (NaN payloads
// aside), at every level the machine has: every width 0..130, every
// operator, with dst apart from the operands and dst aliasing x or y.
// Operands mix ordinary values with -0, ±Inf, NaN, subnormals and pairs
// whose result is subnormal, so the flush has work. dst is a window of a
// larger array, and nothing outside it may change.
func TestStripKernelsMatchPortable(t *testing.T) {
	levels := append([]kernelLevel{{name: "portable", level: levelPortable}}, asmLevels...)
	ops := []BinOp{Add, Sub, Mul, Div, Pow, MinOp}
	for _, lv := range levels {
		t.Run(lv.name, func(t *testing.T) {
			if simdLevel < lv.level {
				t.Skip(lv.lacks)
			}
			rng := rand.New(rand.NewSource(48))
			atLevel(lv.level, func() {
				for n := 0; n <= 130; n++ {
					for _, op := range ops {
						f := binOpFuncs[op]
						x, y := stripOperands(rng, op, n)
						s := x[:min(n, 1)]
						for _, flush := range []bool{false, true} {
							for _, alias := range []string{"apart", "x", "y"} {
								want := make([]float64, n)
								for j := range want {
									want[j] = stripWant(f(x[j], y[j]), flush)
								}
								checkStrip(t, fmt.Sprintf("combine %v, flush %v, dst %s, n=%d", op, flush, alias, n), want, func(dst []float64) {
									xs, ys := x, y
									switch alias {
									case "x":
										copy(dst, x)
										xs = dst
									case "y":
										copy(dst, y)
										ys = dst
									}
									combine(op, dst, xs, ys, flush)
								})
							}
							for _, left := range []bool{false, true} {
								sv := 0x1p-540 // a subnormal product with x's pairs
								if len(s) > 0 && rng.Intn(2) == 0 {
									sv = s[0]
								}
								for _, alias := range []string{"apart", "x"} {
									want := make([]float64, n)
									for j := range want {
										r := f(x[j], sv)
										if left && op != Add && op != Mul { // a sum or product is x op s either way
											r = f(sv, x[j])
										}
										want[j] = stripWant(r, flush)
									}
									checkStrip(t, fmt.Sprintf("combineScalar %v %v, left %v, flush %v, dst %s, n=%d", op, sv, left, flush, alias, n), want, func(dst []float64) {
										xs := x
										if alias == "x" {
											copy(dst, x)
											xs = dst
										}
										combineScalar(op, dst, xs, sv, left, flush)
									})
								}
							}
						}
					}
					x, _ := stripOperands(rng, Mul, n)
					for _, sv := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(-1), 0x1p-1040, -2.5} {
						want := make([]float64, n)
						for j := range want {
							want[j] = sv
						}
						checkStrip(t, fmt.Sprintf("fill %v, n=%d", sv, n), want, func(dst []float64) { fill(dst, sv) })
					}
					want := make([]float64, n)
					for j, v := range x {
						want[j] = stripWant(v, true)
					}
					checkStrip(t, fmt.Sprintf("flushStrip, n=%d", n), want, func(dst []float64) { flushStrip(dst, x) })
					checkStrip(t, fmt.Sprintf("flushStrip in place, n=%d", n), want, func(dst []float64) {
						copy(dst, x)
						flushStrip(dst, dst)
					})
				}
			})
		})
	}
}

// checkStrip runs strip on a window of a larger array, holding NaN around it
// and -1.5 inside, and requires want in the window and nothing changed
// outside it.
func checkStrip(t *testing.T, what string, want []float64, strip func(dst []float64)) {
	t.Helper()
	n := len(want)
	whole := make([]float64, n+16)
	for i := range whole {
		whole[i] = math.NaN()
	}
	off := 3 + n%5
	dst := whole[off : off+n : off+n]
	for i := range dst {
		dst[i] = -1.5
	}
	before := slices.Clone(whole)
	strip(dst)
	if !sameFloats(dst, want) {
		for j := range want {
			if !sameFloats(dst[j:j+1], want[j:j+1]) {
				t.Fatalf("%s: value %d is %v (%#x), want %v (%#x)", what, j, dst[j], math.Float64bits(dst[j]), want[j], math.Float64bits(want[j]))
			}
		}
	}
	for i := range whole {
		if (i < off || i >= off+n) && math.Float64bits(whole[i]) != math.Float64bits(before[i]) {
			t.Fatalf("%s: the strip wrote outside its destination, at %d", what, i-off)
		}
	}
}
