package matrix

import "fmt"

// AggFunc identifies a unary aggregation.
type AggFunc int

// Supported unary aggregations.
const (
	SumAll AggFunc = iota // full sum -> 1x1
	RowSum                // per-row sum -> Rx1
	ColSum                // per-column sum -> 1xC
	MinAll                // full min -> 1x1
	MaxAll                // full max -> 1x1
)

var aggNames = map[AggFunc]string{
	SumAll: "sum", RowSum: "rowSums", ColSum: "colSums",
	MinAll: "min", MaxAll: "max",
}

// String returns the surface name of the aggregation.
func (a AggFunc) String() string {
	if s, ok := aggNames[a]; ok {
		return s
	}
	return fmt.Sprintf("AggFunc(%d)", int(a))
}

// ParseAggFunc maps a surface name to an AggFunc.
func ParseAggFunc(s string) (AggFunc, bool) {
	for a, name := range aggNames {
		if name == s {
			return a, true
		}
	}
	return 0, false
}

// OutDims returns the output shape of the aggregation for an RxC input.
func (a AggFunc) OutDims(rows, cols int) (int, int) {
	switch a {
	case RowSum:
		return rows, 1
	case ColSum:
		return 1, cols
	default:
		return 1, 1
	}
}

// Aggregate applies the aggregation to m.
func Aggregate(a AggFunc, m Mat) *Dense {
	rows, cols := m.Dims()
	switch a {
	case SumAll:
		return scalarMat(sumAll(m))
	case MinAll, MaxAll:
		return scalarMat(minMaxAll(a, m))
	case RowSum:
		out := NewDense(rows, 1)
		switch x := m.(type) {
		case *Dense:
			for i := 0; i < rows; i++ {
				var s float64
				for _, v := range x.Row(i) {
					s += v
				}
				out.Data[i] = s
			}
		case *CSR:
			for i := 0; i < rows; i++ {
				_, vals := x.RowNNZ(i)
				var s float64
				for _, v := range vals {
					s += v
				}
				out.Data[i] = s
			}
		}
		return out
	case ColSum:
		out := NewDense(1, cols)
		switch x := m.(type) {
		case *Dense:
			for i := 0; i < rows; i++ {
				row := x.Row(i)
				for j, v := range row {
					out.Data[j] += v
				}
			}
		case *CSR:
			for i := 0; i < rows; i++ {
				cs, vals := x.RowNNZ(i)
				for p, j := range cs {
					out.Data[j] += vals[p]
				}
			}
		}
		return out
	}
	panic(fmt.Sprintf("matrix: unknown AggFunc %d", int(a)))
}

// Combine merges two partial aggregation results of the same shape, as used
// by the distributed aggregation stage.
func (a AggFunc) Combine(x, y Mat) Mat {
	switch a {
	case SumAll, RowSum, ColSum:
		return Binary(Add, x, y)
	case MinAll:
		return Binary(MinOp, x, y)
	case MaxAll:
		return Binary(MaxOp, x, y)
	}
	panic(fmt.Sprintf("matrix: unknown AggFunc %d", int(a)))
}

func scalarMat(v float64) *Dense {
	return &Dense{Rows: 1, Cols: 1, Data: []float64{v}}
}

func sumAll(m Mat) float64 {
	var s float64
	switch x := m.(type) {
	case *Dense:
		for _, v := range x.Data {
			s += v
		}
	case *CSR:
		for _, v := range x.Val {
			s += v
		}
	}
	return s
}

func minMaxAll(a AggFunc, m Mat) float64 {
	rows, cols := m.Dims()
	if rows == 0 || cols == 0 {
		return 0
	}
	best := m.At(0, 0)
	upd := func(v float64) {
		if a == MinAll {
			if v < best {
				best = v
			}
		} else if v > best {
			best = v
		}
	}
	switch x := m.(type) {
	case *Dense:
		for _, v := range x.Data {
			upd(v)
		}
	case *CSR:
		for _, v := range x.Val {
			upd(v)
		}
		if x.NNZ() < rows*cols {
			upd(0) // implicit zeros participate
		}
	}
	return best
}
