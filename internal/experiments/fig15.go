package experiments

import (
	"fmt"

	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/workloads"
)

// Fig15 reproduces Figure 15: the AutoEncoder workload (one training epoch)
// against SystemDS and TensorFlow — varying input size at batch 1024 (a) and
// 512 (b), varying batch size (c) and varying the hidden-layer parameters
// (d). One simulated execution covers one mini-batch step; an epoch is
// floor(n/batch) steps.
func Fig15(opts Options) ([]*Table, error) {
	type engineRun struct {
		name string
		run  func(c workloads.AutoEncoderConfig, n int) string
	}
	cfg := opts.paperCluster()
	epoch := func(e core.Engine, clCfg cluster.Config, c workloads.AutoEncoderConfig, n int) string {
		g := workloads.AutoEncoderStep(c)
		s, err := simulate(e, g, clCfg)
		if m := failMarker(err); m != "" {
			return m
		}
		steps := n / c.Batch
		if steps < 1 {
			steps = 1
		}
		return formatF(s.SimSeconds * float64(steps))
	}
	engines := []engineRun{
		{"SystemDS", func(c workloads.AutoEncoderConfig, n int) string {
			return epoch(core.SystemDSSim{}, cfg, c, n)
		}},
		{"TensorFlow", func(c workloads.AutoEncoderConfig, n int) string {
			return tfEpoch(c, n, tfCluster(cfg))
		}},
		{"FuseME", func(c workloads.AutoEncoderConfig, n int) string {
			return epoch(core.FuseME{}, cfg, c, n)
		}},
	}

	var tables []*Table
	// (a), (b): varying the input matrix n x n.
	for _, batch := range []int{1024, 512} {
		id := "fig15a"
		if batch == 512 {
			id = "fig15b"
		}
		tab := &Table{ID: id,
			Title:   fmt.Sprintf("AutoEncoder epoch time vs input size (batch %d, h1=500, h2=2), s", batch),
			Columns: []string{"n", "SystemDS", "TensorFlow", "FuseME"},
		}
		for _, n := range []int{1_000, 10_000, 100_000} {
			nd := opts.dim(n)
			c := workloads.AutoEncoderConfig{Features: nd, Batch: min(batch, nd), H1: 500, H2: 2}
			row := []string{fmt.Sprintf("%dK", n/1000)}
			for _, e := range engines {
				row = append(row, e.run(c, nd))
			}
			tab.Rows = append(tab.Rows, row)
		}
		tables = append(tables, tab)
	}
	// (c): varying the batch size on 10K x 10K.
	tabC := &Table{ID: "fig15c",
		Title:   "AutoEncoder epoch time vs batch size (10K x 10K, h1=500, h2=2), s",
		Columns: []string{"batch", "SystemDS", "TensorFlow", "FuseME"},
	}
	for _, batch := range []int{512, 1024, 2048, 4096} {
		nd := opts.dim(10_000)
		c := workloads.AutoEncoderConfig{Features: nd, Batch: min(batch, nd), H1: 500, H2: 2}
		row := []string{fmt.Sprintf("%d", batch)}
		for _, e := range engines {
			row = append(row, e.run(c, nd))
		}
		tabC.Rows = append(tabC.Rows, row)
	}
	tables = append(tables, tabC)
	// (d): varying (h1, h2) on 10K x 10K, batch 1024.
	tabD := &Table{ID: "fig15d",
		Title:   "AutoEncoder epoch time vs parameters (10K x 10K, batch 1024), s",
		Columns: []string{"(h1,h2)", "SystemDS", "TensorFlow", "FuseME"},
	}
	for _, hh := range [][2]int{{500, 2}, {1000, 4}, {2000, 8}, {5000, 20}} {
		nd := opts.dim(10_000)
		c := workloads.AutoEncoderConfig{Features: nd, Batch: min(1024, nd), H1: hh[0], H2: hh[1]}
		row := []string{fmt.Sprintf("(%d,%d)", hh[0], hh[1])}
		for _, e := range engines {
			row = append(row, e.run(c, nd))
		}
		tabD.Rows = append(tabD.Rows, row)
	}
	tables = append(tables, tabD)
	return tables, nil
}

// tfEpoch models a TensorFlow data-parallel epoch with 12 instances per
// node (Section 6.1): weight variables are resident (broadcast once per
// epoch); each step moves its mini-batch and every instance pushes its
// gradients to the parameter server; XLA-compiled local kernels run at the
// boosted compute bandwidth of tfCluster.
func tfEpoch(c workloads.AutoEncoderConfig, n int, cfg cluster.Config) string {
	g := workloads.AutoEncoderStep(c)
	var flopsPerStep int64
	for _, nd := range g.Nodes() {
		flopsPerStep += nd.EstFlops()
	}
	weights := int64(c.H1*c.Features+c.H2*c.H1+c.H1*c.H2+c.Features*c.H1+
		c.H1+c.H2+c.H1+c.Features) * 8
	batchBytes := int64(c.Features*c.Batch) * 8
	steps := n / c.Batch
	if steps < 1 {
		steps = 1
	}
	netOnce := int64(cfg.TotalSlots()) * weights
	// Input pipeline plus TF1-style parameter-server synchronisation: every
	// instance pushes its gradients each step.
	netPerStep := batchBytes + int64(cfg.TotalSlots())*weights
	// The epoch is priced as one Eq. 2 stage, plus TF's own per-step
	// dispatch overhead rather than Spark's per-wave one.
	t := max(cfg.Eq2(float64(netOnce+int64(steps)*netPerStep), float64(int64(steps)*flopsPerStep)))
	return formatF(t + float64(steps)*cfg.TaskOverhead)
}
