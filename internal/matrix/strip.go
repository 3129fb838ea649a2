package matrix

// The element-wise strips: the loops that store a chain's operators row by
// row (Chain, Materialise) and run a masked chain's passes (MaskedChain.Run).
// The four arithmetic operators, the fill of a broadcast row and the flushing
// copy have one assembly form at levelAVX512 (stripAVX512, eight values per
// step) and a portable loop below it; either applies each operator to each
// value once, left operand first, so the forms agree bit for bit, NaN
// payloads aside. Every other operator runs its binOpFuncs entry per value.

// Forms of stripAVX512: the operand kinds ORed with the operator, which is
// Add, Sub, Mul or Div as BinOp numbers them, or stripFirst.
const (
	stripFirst = 4      // the left operand itself: a copy, or from a scalar a fill
	stripVV    = 0 << 3 // x and y are strips
	stripVS    = 1 << 3 // y is the scalar s
	stripSV    = 2 << 3 // x is the scalar s
)

// keepMask is stripAVX512's keep argument: with flush set, the exponent field,
// so that zeros and subnormals are stored as +0 (flush); else every bit.
func keepMask(flush bool) uint64 {
	if flush {
		return 0x7ff << 52
	}
	return ^uint64(0)
}

// arith reports whether op is one of the operators stripAVX512 has.
func arith(op BinOp) bool { return op == Add || op == Sub || op == Mul || op == Div }

// combine stores op(x[j], y[j]) into dst[j], flushed (flush) when flush is
// set; dst may be x or y.
func combine(op BinOp, dst, x, y []float64, flush bool) {
	x, y = x[:len(dst)], y[:len(dst)]
	if len(dst) == 0 {
		return
	}
	if simdLevel >= levelAVX512 && arith(op) {
		stripAVX512(stripVV|int(op), &dst[0], &x[0], &y[0], len(dst), 0, keepMask(flush))
		return
	}
	switch op {
	case Add:
		for j := range dst {
			dst[j] = x[j] + y[j]
		}
	case Sub:
		for j := range dst {
			dst[j] = x[j] - y[j]
		}
	case Mul:
		for j := range dst {
			dst[j] = x[j] * y[j]
		}
	case Div:
		for j := range dst {
			dst[j] = x[j] / y[j]
		}
	default:
		f := binOpFuncs[op]
		for j := range dst {
			dst[j] = f(x[j], y[j])
		}
	}
	if flush {
		flushStrip(dst, dst)
	}
}

// combineScalar stores op(x[j], s), or op(s, x[j]) when left, into dst[j],
// flushed when flush is set; dst may be x. A sum or product is x[j] + s or
// x[j] * s either way.
func combineScalar(op BinOp, dst, x []float64, s float64, left, flush bool) {
	x = x[:len(dst)]
	if len(dst) == 0 {
		return
	}
	if simdLevel >= levelAVX512 && arith(op) {
		if left && (op == Sub || op == Div) {
			stripAVX512(stripSV|int(op), &dst[0], &x[0], nil, len(dst), s, keepMask(flush))
		} else {
			stripAVX512(stripVS|int(op), &dst[0], &x[0], nil, len(dst), s, keepMask(flush))
		}
		return
	}
	switch {
	case op == Add:
		for j := range dst {
			dst[j] = x[j] + s
		}
	case op == Mul:
		for j := range dst {
			dst[j] = x[j] * s
		}
	case op == Sub && !left:
		for j := range dst {
			dst[j] = x[j] - s
		}
	case op == Sub:
		for j := range dst {
			dst[j] = s - x[j]
		}
	case op == Div && !left:
		for j := range dst {
			dst[j] = x[j] / s
		}
	case op == Div:
		for j := range dst {
			dst[j] = s / x[j]
		}
	default:
		f := ScalarFn(op, s, left)
		for j := range dst {
			dst[j] = f(x[j])
		}
	}
	if flush {
		flushStrip(dst, dst)
	}
}

// fill stores s into every value of dst.
func fill(dst []float64, s float64) {
	if simdLevel >= levelAVX512 && len(dst) > 0 {
		stripAVX512(stripSV|stripFirst, &dst[0], nil, nil, len(dst), s, keepMask(false))
		return
	}
	for j := range dst {
		dst[j] = s
	}
}

// flushStrip stores flush(x[j]) into dst[j]; dst may be x.
func flushStrip(dst, x []float64) {
	x = x[:len(dst)]
	if simdLevel >= levelAVX512 && len(dst) > 0 {
		stripAVX512(stripVV|stripFirst, &dst[0], &x[0], nil, len(dst), 0, keepMask(true))
		return
	}
	for j, v := range x {
		dst[j] = flush(v)
	}
}
