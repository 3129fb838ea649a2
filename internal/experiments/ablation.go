package experiments

import (
	"fmt"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/workloads"
)

// Ablation isolates the contribution of each CFO design choice with real
// (laptop-scale) executions of the NMF kernel over a skewed sparse rating
// matrix:
//
//   - full FuseME (masked evaluation, equal-width cuboids),
//   - without sparsity exploitation (NoMask: the multiplication chain is
//     evaluated densely),
//   - with sparsity-aware load balancing (the paper's future-work
//     extension: partition boundaries follow the driver's nnz distribution),
//   - without fusion at all (DistME), for reference.
//
// Reported: executed flops, the heaviest task's flops (load imbalance),
// communication and wall time.
func Ablation(opts Options) ([]*Table, error) {
	const (
		rows, cols = 3000, 2500
		k          = 48
		density    = 0.02
		skew       = 1.2
		bs         = 64
	)
	x := block.RandomSparseSkewed(rows, cols, bs, density, skew, 1, 5, 7)
	u := block.RandomDense(rows, k, bs, 0, 1, 8)
	v := block.RandomDense(cols, k, bs, 0, 1, 9)
	g := workloads.NMFKernel(rows, cols, k, x.Density())
	inputs := map[string]*block.Matrix{"X": x, "U": u, "V": v}

	clCfg := cluster.Config{
		Nodes: 2, TasksPerNode: 4, TaskMemBytes: 4 << 30,
		NetBandwidth: 1e9, CompBandwidth: 50e9, BlockSize: bs,
	}
	tab := &Table{ID: "ablation",
		Title: fmt.Sprintf("CFO ablation on a skewed sparse matrix (%dx%d, d=%.3g, skew=%g, real execution)",
			rows, cols, x.Density(), skew),
		Columns: []string{"variant", "flops", "max task flops", "imbalance", "comm (MB)", "wall (ms)"},
	}
	engines := []core.Engine{
		core.FuseME{},
		core.FuseME{NoMask: true},
		core.FuseME{Balanced: true},
		core.DistMESim{},
	}
	for _, e := range engines {
		cl := cluster.MustNew(clCfg)
		if err := opts.execute("ablation/"+e.Name(), e, g, cl, inputs); err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		s := cl.Stats()
		imbalance := "-"
		if s.Tasks > 0 && s.Flops > 0 {
			avg := float64(s.Flops) / float64(s.Tasks)
			imbalance = fmt.Sprintf("%.2fx", float64(s.MaxTaskFlops)/avg)
		}
		tab.AddRow(e.Name(), s.Flops, s.MaxTaskFlops, imbalance,
			float64(s.TotalCommBytes())/1e6, s.WallSeconds*1000)
	}
	tab.Notes = append(tab.Notes,
		"masking cuts flops by the sparsity factor; balancing cuts the heaviest task on skewed data; DistME shows the cost of materialising the dense product")
	return []*Table{tab}, nil
}
