package experiments

import (
	"fmt"
	"time"

	"fuseme/internal/cfg"
	"fuseme/internal/cluster"
	"fuseme/internal/cost"
	"fuseme/internal/opt"
	"fuseme/internal/workloads"
)

// fig13Plan builds the fused NMF-kernel plan at the Figure 13 scale
// (1M x 5K x 1M) on the paper's cluster and returns the plan's cost
// coefficients with the cluster they are priced on.
func fig13Plan(opts Options, rows, cols, k int, density float64) (cost.Estimates, cluster.Config, error) {
	cc := opts.paperCluster()
	g := workloads.NMFKernel(opts.dim(rows), opts.dim(cols), opts.dim(k), density)
	res, err := cfg.Generate(g, cc)
	if err != nil {
		return cost.Estimates{}, cc, err
	}
	for _, p := range res.Set.Plans {
		if p.MainMM != nil {
			return cost.Analyze(p, cc.BlockSize), cc, nil
		}
	}
	return cost.Estimates{}, cc, fmt.Errorf("fig13: no fused matmul plan generated")
}

// Fig13 reproduces Figures 13(a)-(c): Cost(), transferred data and elapsed
// time while varying (P, R) at Q = 4 on 1M x 5K x 1M matrices, plus the
// optimum found by the optimizer.
func Fig13(opts Options) ([]*Table, error) {
	e, cc, err := fig13Plan(opts, 1_000_000, 1_000_000, 5_000, 0.001)
	if err != nil {
		return nil, err
	}
	sweep := []struct{ P, R int }{{11, 5}, {9, 5}, {7, 5}, {5, 5}, {7, 4}, {9, 3}, {11, 3}}
	const q = 4
	tab := &Table{ID: "fig13",
		Title:   "Cost(), transferred data and time varying (P,R) at Q=4 (1M x 5K x 1M)",
		Columns: []string{"(P,R)", "Cost()", "data (GB)", "sim time (s)", "mem/task (GB)", "fits"},
	}
	for _, c := range sweep {
		costV := cost.Cost(cc, e, c.P, q, c.R)
		net := e.NetBytes.Eval(c.P, q, c.R)
		simT := max(cc.Eq2(net, e.ComFlops.Eval(c.P, q, c.R)))
		mem := e.MemBytes.Eval(c.P, q, c.R)
		fits := "yes"
		if !cost.MemOK(cc, e, c.P, q, c.R) {
			fits = "no"
		}
		tab.AddRow(fmt.Sprintf("(%d,%d)", c.P, c.R), costV, net/1e9, simT, mem/1e9, fits)
	}
	best := opt.Optimize(cc, e)
	tab.Notes = append(tab.Notes, fmt.Sprintf(
		"optimizer chose (P*=%d, Q*=%d, R*=%d), cost %.2f, data %.1f GB — the sweep's minimum should sit at/near it (paper: (5,4,5))",
		best.P, best.Q, best.R, best.Cost, float64(best.NetBytes)/1e9))
	return []*Table{tab}, nil
}

// Fig13d reproduces Figure 13(d): latency of the exhaustive vs pruning
// parameter search as the voxel count I*J*K grows.
func Fig13d(opts Options) ([]*Table, error) {
	tab := &Table{ID: "fig13d",
		Title:   "parameter search latency: exhaustive vs pruning",
		Columns: []string{"voxels", "exhaustive (ms)", "pruning (ms)", "evals exh.", "evals pruned", "same optimum"},
	}
	// I = J = 100 blocks; K grows to produce the paper's voxel counts.
	for _, kBlocks := range []int{2, 10, 13, 25, 50, 100, 200} {
		voxels := 100 * 100 * kBlocks
		e, cc, err := fig13Plan(Options{}, 100_000, 100_000, kBlocks*1000, 0.001)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		full := opt.OptimizeExhaustive(cc, e)
		exhMS := float64(time.Since(t0).Microseconds()) / 1000
		t0 = time.Now()
		pruned := opt.Optimize(cc, e)
		pruneMS := float64(time.Since(t0).Microseconds()) / 1000
		same := "yes"
		if full.P != pruned.P || full.Q != pruned.Q || full.R != pruned.R {
			same = "no"
		}
		tab.AddRow(fmt.Sprintf("%dK", voxels/1000), exhMS, pruneMS, full.Evaluated, pruned.Evaluated, same)
	}
	return []*Table{tab}, nil
}
