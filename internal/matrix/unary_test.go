package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// oddValues are operands where a wrong instruction shows: signed zeros,
// subnormals, values whose products overflow, underflow or lose bits to a
// second rounding, infinities and NaNs of either sign with a payload.
var oddValues = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040,
	0x1p-600, 0x1p600, -0x1p600, 1 + 0x1p-52, 1 - 0x1p-53, math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7FF8000000000123), math.Float64frombits(0xFFF8000000000456), 0x1p-1022, 1, -1,
}

// stripCase is a registered function with a strip form, a draw of ordinary
// operands for it and the operands at the edges of its kernel's fast range.
type stripCase struct {
	name     string
	ordinary func(rng *rand.Rand) float64
	edges    []float64
}

// draws is how many ordinary operands TestStripEqualsMath gives a case: a
// kernel's recurrence gets 2^20, a loop over the inlined scalar form, which
// has no range to fall out of, 2^16.
func (k stripCase) draws() int {
	if k.edges == nil {
		return 1 << 16
	}
	return 1 << 20
}

// plainStrips are the registered functions whose strip form is a Go loop.
var plainStrips = []string{"abs", "sq", "neg", "recip", "relu", "sigmoidGrad"}

// anyFloat draws from all 2^64 bit patterns: every exponent and sign,
// subnormals, infinities and NaNs with a payload.
func anyFloat(rng *rand.Rand) float64 { return math.Float64frombits(rng.Uint64()) }

// stripKernels are the three registered functions with a strip kernel and the
// operands each must get right: a draw of ordinary ones, and the ones at the
// edges of its fast range.
var stripKernels = []stripCase{
	{"log", func(rng *rand.Rand) float64 { return math.Float64frombits(rng.Uint64() >> 1) }, logEdges()}, // every exponent
	{"exp", expOrdinary, expEdges()},
	{"sigmoid", expOrdinary, expEdges()},
}

// logEdges are subnormals across [2^-1074, 2^-1022) and, for every exponent,
// the values within 4 ulp of sqrt(2)/2 * 2^k, where f1 is or is not doubled.
func logEdges() []float64 {
	var e []float64
	for m := uint64(1); m < 1<<52; m = m*3 + 1 {
		e = append(e, math.Float64frombits(m), math.Float64frombits(1<<52-m))
	}
	for k := -1021; k <= 1023; k++ {
		for d := uint64(0); d < 9; d++ {
			e = append(e, math.Ldexp(math.Float64frombits(math.Float64bits(math.Sqrt2/2)+d-4), k))
		}
	}
	return e
}

// expEdges sweep +-[708, 746]: the end of the fast range, overflow past
// 709.78, gradual underflow down to zero below -745.13.
func expEdges() []float64 {
	e := []float64{math.Nextafter(708, 0), math.Nextafter(708, 709)}
	for x := 708.0; x <= 746; x += 1.0 / 64 {
		e = append(e, x, x+0x1p-20)
	}
	for _, x := range e {
		e = append(e, -x)
	}
	return e
}

func expOrdinary(rng *rand.Rand) float64 {
	return (2*rng.Float64() - 1) * []float64{1, 40, 708}[rng.Intn(3)]
}

// TestStripEqualsMath holds every strip form to its scalar form over 2^20
// random operands per kernel (2^16 per plain loop), every edge operand and the
// odd values, out of place and in place: the strip has the bits of the registered scalar form —
// math.Log, math.Exp, the sigmoid over math.Exp, the algebraic functions'
// expressions — NaN payloads included, so a chain gives the same block
// whichever form it takes. Where the assembly kernels run, that is their
// arithmetic against math's; on any other machine, and for the algebraic
// functions everywhere, the strip form is the scalar form in a loop.
func TestStripEqualsMath(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cases := append([]stripCase(nil), stripKernels...)
	for _, name := range plainStrips {
		cases = append(cases, stripCase{name: name, ordinary: anyFloat})
	}
	for _, k := range cases {
		u := unaryFuncs[k.name]
		if u.Strip == nil {
			t.Fatalf("%s has no strip form", k.name)
		}
		n := k.draws()
		src := make([]float64, n, n+len(k.edges)+len(oddValues))
		for i := range src {
			src[i] = k.ordinary(rng)
		}
		src = append(append(src, k.edges...), oddValues...)
		rng.Shuffle(len(src), func(i, j int) { src[i], src[j] = src[j], src[i] }) // edges fall into fast groups
		got, in := make([]float64, len(src)), append([]float64(nil), src...)
		u.Strip(got, src)
		u.Strip(in, in)
		bad := 0
		for i, x := range src {
			if want := math.Float64bits(u.F(x)); math.Float64bits(got[i]) != want || math.Float64bits(in[i]) != want {
				if bad++; bad <= 5 {
					t.Errorf("%s(%v): scalar form %x, strip %x, strip in place %x", k.name, x, want, math.Float64bits(got[i]), math.Float64bits(in[i]))
				}
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d of %d operands differ", k.name, bad, len(src))
		}
	}
}
