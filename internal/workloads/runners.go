package workloads

import (
	"fmt"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/matrix"
	"fuseme/internal/rt"
)

// GNMFResult reports one GNMF run.
type GNMFResult struct {
	U, V    *block.Matrix
	PerIter []cluster.Stats // stats delta of each iteration
	Total   cluster.Stats
}

// RunGNMF executes iters GNMF iterations (Eq. 6) of X ~ V x U on the engine,
// feeding each iteration's factors into the next. The physical plan is
// compiled once and re-executed, as the paper's systems do.
func RunGNMF(e core.Engine, rtm rt.Runtime, x, u, v *block.Matrix, iters int) (*GNMFResult, error) {
	k := u.Rows
	g := GNMF(x.Rows, x.Cols, k, x.Density())
	pp, err := e.Compile(g, rtm.Config())
	if err != nil {
		return nil, fmt.Errorf("%s: compile GNMF: %w", e.Name(), err)
	}
	res := &GNMFResult{U: u, V: v}
	prev := rtm.Stats()
	for it := 0; it < iters; it++ {
		out, err := core.Execute(pp, rtm, map[string]*block.Matrix{"X": x, "U": res.U, "V": res.V})
		if err != nil {
			return nil, fmt.Errorf("%s: GNMF iteration %d: %w", e.Name(), it, err)
		}
		res.U, res.V = out["U2"], out["V2"]
		cur := rtm.Stats()
		res.PerIter = append(res.PerIter, cur.Sub(prev))
		prev = cur
	}
	res.Total = prev
	return res, nil
}

// AEState holds the AutoEncoder parameters as blocked matrices.
type AEState struct {
	W1, B1, W2, B2, W3, B3, W4, B4 *block.Matrix
}

// InitAutoEncoder initialises small random weights deterministically.
func InitAutoEncoder(c AutoEncoderConfig, blockSize int, seed int64) *AEState {
	r := func(rows, cols int, s int64) *block.Matrix {
		return block.RandomDense(rows, cols, blockSize, -0.1, 0.1, seed+s)
	}
	return &AEState{
		W1: r(c.H1, c.Features, 1), B1: r(c.H1, 1, 2),
		W2: r(c.H2, c.H1, 3), B2: r(c.H2, 1, 4),
		W3: r(c.H1, c.H2, 5), B3: r(c.H1, 1, 6),
		W4: r(c.Features, c.H1, 7), B4: r(c.Features, 1, 8),
	}
}

// RunAutoEncoderEpoch trains one epoch of the two-layer AutoEncoder on X
// (examples x features), updating state in place with plain SGD and
// returning the final batch loss.
func RunAutoEncoderEpoch(e core.Engine, rtm rt.Runtime, x *block.Matrix, c AutoEncoderConfig, lr float64, state *AEState) (float64, error) {
	g := AutoEncoderStep(c)
	pp, err := e.Compile(g, rtm.Config())
	if err != nil {
		return 0, fmt.Errorf("%s: compile AutoEncoder: %w", e.Name(), err)
	}
	flat := x.ToMat()
	bs := rtm.Config().BlockSize
	var loss float64
	for start := 0; start+c.Batch <= x.Rows; start += c.Batch {
		xt := matrix.NewDense(c.Features, c.Batch)
		for i := 0; i < c.Batch; i++ {
			for j := 0; j < c.Features; j++ {
				xt.Set(j, i, flat.At(start+i, j))
			}
		}
		out, err := core.Execute(pp, rtm, map[string]*block.Matrix{
			"XT": block.FromMat(xt, bs),
			"W1": state.W1, "b1": state.B1,
			"W2": state.W2, "b2": state.B2,
			"W3": state.W3, "b3": state.B3,
			"W4": state.W4, "b4": state.B4,
		})
		if err != nil {
			return 0, fmt.Errorf("%s: AutoEncoder batch at %d: %w", e.Name(), start, err)
		}
		loss = out["loss"].At(0, 0)
		applySGD(state.W1, out["gW1"], lr)
		applySGD(state.B1, out["gb1"], lr)
		applySGD(state.W2, out["gW2"], lr)
		applySGD(state.B2, out["gb2"], lr)
		applySGD(state.W3, out["gW3"], lr)
		applySGD(state.B3, out["gb3"], lr)
		applySGD(state.W4, out["gW4"], lr)
		applySGD(state.B4, out["gb4"], lr)
	}
	return loss, nil
}

// applySGD performs w -= lr * g block-wise on the driver.
func applySGD(w, g *block.Matrix, lr float64) {
	scaled := block.New(g.Rows, g.Cols, g.BlockSize)
	g.ForEach(func(k block.Key, blk matrix.Mat) {
		scaled.SetBlock(k.Row, k.Col, matrix.Scale(blk, -lr))
	})
	block.AddInto(w, scaled)
}
