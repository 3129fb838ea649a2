package chaos

import (
	"fuseme/internal/block"
	"fuseme/internal/core"
	"fuseme/internal/rt"
	"fuseme/internal/workloads"
)

// GNMFWorkload builds a stepwise GNMF run: one multiplicative-update
// iteration per step, the plan compiled once per instance, factor state fed
// forward — the paper's flagship iterative workload, and the one whose
// loop-invariant X keeps the block cache busy across worker loss.
func GNMFWorkload(users, items, k, blockSize, iters int) Workload {
	return Workload{
		Name:  "gnmf",
		Steps: iters,
		New: func(rtm rt.Runtime) (func(int) error, func() map[string]*block.Matrix, error) {
			x := block.RandomDense(users, items, blockSize, 0.5, 1.5, 11)
			u := block.RandomDense(k, items, blockSize, 0.2, 0.8, 12)
			v := block.RandomDense(users, k, blockSize, 0.2, 0.8, 13)
			g := workloads.GNMF(users, items, k, x.Density())
			pp, err := (core.FuseME{}).Compile(g, rtm.Config())
			if err != nil {
				return nil, nil, err
			}
			step := func(int) error {
				out, err := core.Execute(pp, rtm, map[string]*block.Matrix{"X": x, "U": u, "V": v})
				if err != nil {
					return err
				}
				u, v = out["U2"], out["V2"]
				return nil
			}
			outputs := func() map[string]*block.Matrix {
				return map[string]*block.Matrix{"U": u, "V": v}
			}
			return step, outputs, nil
		},
	}
}

// AutoEncoderWorkload builds a stepwise AutoEncoder training run: one SGD
// epoch per step over a fixed random example matrix, weights fed forward.
func AutoEncoderWorkload(examples int, c workloads.AutoEncoderConfig, blockSize, epochs int) Workload {
	return Workload{
		Name:  "autoencoder",
		Steps: epochs,
		New: func(rtm rt.Runtime) (func(int) error, func() map[string]*block.Matrix, error) {
			x := block.RandomDense(examples, c.Features, blockSize, 0, 1, 29)
			state := workloads.InitAutoEncoder(c, blockSize, 31)
			step := func(int) error {
				_, err := workloads.RunAutoEncoderEpoch(core.FuseME{}, rtm, x, c, 0.1, state)
				return err
			}
			outputs := func() map[string]*block.Matrix {
				return map[string]*block.Matrix{
					"W1": state.W1, "b1": state.B1,
					"W2": state.W2, "b2": state.B2,
					"W3": state.W3, "b3": state.B3,
					"W4": state.W4, "b4": state.B4,
				}
			}
			return step, outputs, nil
		},
	}
}
