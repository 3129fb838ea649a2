package experiments

import (
	"fmt"

	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/cost"
	"fuseme/internal/dag"
	"fuseme/internal/exec"
	"fuseme/internal/fusion"
	"fuseme/internal/workloads"
)

// Figure 12 compares the distributed fused operators — BFO/RFO (SystemDS),
// CFO (FuseME) — plus unfused DistME on the query X * log(U %*% t(V) + eps)
// over three synthetic dataset families and varying cluster sizes.

// fig12Engines is the roster of Section 6.2.
func fig12Engines() []core.Engine {
	return []core.Engine{core.SystemDSSim{}, core.DistMESim{}, core.FuseME{}}
}

// systemDSFused runs the Section 6.2 SystemDS configuration: the paper notes
// that for this simple query "the plan generator is not used" — the entire
// expression is executed as a single fused operator, with BFO or RFO chosen
// by the number of partitions of the main matrix X versus the output grid.
// Returns the simulated stats and the variant label ("B" or "R").
func systemDSFused(g *dag.Graph, cfg cluster.Config) (cluster.Stats, error, string) {
	var root *dag.Node
	for _, n := range g.Outputs() {
		root = n
	}
	members := map[int]*dag.Node{}
	for _, n := range g.Nodes() {
		if !n.IsLeaf() && g.ReachableFromOutputs()[n.ID] {
			members[n.ID] = n
		}
	}
	p, err := fusion.NewPlan(root, members)
	if err != nil {
		return cluster.Stats{}, err, "?"
	}
	bs := cfg.BlockSize
	gi, gj, _ := p.BlockGridDims(bs)
	main := cost.MainInput(p)
	parts := int(cost.SparkSizeBytes(main)/cost.PartitionBytes) + 1
	var op *core.PhysOp
	variant := "R"
	if parts < gi || parts < gj {
		variant = "B"
		op = &core.PhysOp{Plan: p, Strategy: exec.Broadcast, Kind: "BFO",
			Est: cost.BFOEstimates(p, cfg.TotalSlots())}
	} else {
		op = &core.PhysOp{Plan: p, Strategy: exec.Cuboid, Kind: "RFO", P: gi, Q: gj, R: 1,
			Est: cost.RFOEstimates(p, bs)}
	}
	pp := &core.PhysPlan{Graph: g, Ops: []*core.PhysOp{op}}
	if err := pp.Lower(cfg); err != nil {
		return cluster.Stats{}, err, variant
	}
	stats, err := core.Simulate(pp, cfg)
	return stats, err, variant
}

func fig12Pair(idTime, idComm, title, rowLabel string, configs []struct {
	label   string
	n, k    int
	density float64
}, opts Options) ([]*Table, error) {
	cfg := opts.paperCluster()
	timeT := &Table{ID: idTime, Title: title + " (elapsed time, s)",
		Columns: []string{rowLabel, "SystemDS", "DistME", "FuseME", "SystemDS-op"}}
	commT := &Table{ID: idComm, Title: title + " (communication, GB)",
		Columns: []string{rowLabel, "SystemDS", "DistME", "FuseME"}}
	for _, c := range configs {
		g := workloads.NMFKernel(opts.dim(c.n), opts.dim(c.n), opts.dim(c.k), c.density)
		sds, errS, variant := systemDSFused(g, cfg)
		times := []string{fmtTime(sds, errS)}
		comms := []string{fmtGB(sds, errS)}
		for _, e := range fig12Engines()[1:] {
			s, err := simulate(e, g, cfg)
			times = append(times, fmtTime(s, err))
			comms = append(comms, fmtGB(s, err))
		}
		timeT.AddRow(c.label, times[0], times[1], times[2], variant)
		commT.AddRow(c.label, comms[0], comms[1], comms[2])
	}
	return []*Table{timeT, commT}, nil
}

// fig12Dims is Figure 12(a)/(e): matrices varying two large dimensions
// (n x 2K x n, density 0.001).
func fig12Dims(opts Options) ([]*Table, error) {
	configs := []struct {
		label   string
		n, k    int
		density float64
	}{
		{"100K", 100_000, 2_000, 0.001},
		{"250K", 250_000, 2_000, 0.001},
		{"500K", 500_000, 2_000, 0.001},
		{"750K", 750_000, 2_000, 0.001},
	}
	return fig12Pair("fig12a", "fig12e",
		"varying two large dimensions (n x 2K x n, d=0.001)", "n", configs, opts)
}

// fig12Common is Figure 12(b)/(f): matrices varying a common large
// dimension (100K x n x 100K, density 0.2).
func fig12Common(opts Options) ([]*Table, error) {
	configs := []struct {
		label   string
		n, k    int
		density float64
	}{
		{"2K", 100_000, 2_000, 0.2},
		{"5K", 100_000, 5_000, 0.2},
		{"10K", 100_000, 10_000, 0.2},
		{"50K", 100_000, 50_000, 0.2},
	}
	return fig12Pair("fig12b", "fig12f",
		"varying a common large dimension (100K x n x 100K, d=0.2)", "n", configs, opts)
}

// fig12Density is Figure 12(c)/(g): matrices varying the density
// (100K x 2K x 100K).
func fig12Density(opts Options) ([]*Table, error) {
	configs := []struct {
		label   string
		n, k    int
		density float64
	}{
		{"0.05", 100_000, 2_000, 0.05},
		{"0.1", 100_000, 2_000, 0.1},
		{"0.5", 100_000, 2_000, 0.5},
		{"1.0", 100_000, 2_000, 1.0},
	}
	return fig12Pair("fig12c", "fig12g",
		"varying the density (100K x 2K x 100K)", "density", configs, opts)
}

// fig12Nodes is Figure 12(d)/(h): varying the number of worker nodes on
// 100K x 2K x 100K at densities 0.1 (SystemDS -> BFO) and 0.2 (-> RFO).
func fig12Nodes(opts Options) ([]*Table, error) {
	var tables []*Table
	for _, d := range []struct {
		id      string
		density float64
	}{{"fig12d", 0.1}, {"fig12h", 0.2}} {
		tab := &Table{ID: d.id,
			Title:   fmt.Sprintf("varying #nodes (100K x 2K x 100K, d=%g): elapsed time (s)", d.density),
			Columns: []string{"nodes", "SystemDS", "FuseME", "SystemDS-op"}}
		for _, nodes := range []int{2, 4, 8} {
			o := opts
			o.Nodes = nodes
			cfg := o.paperCluster()
			g := workloads.NMFKernel(opts.dim(100_000), opts.dim(100_000), opts.dim(2_000), d.density)
			sS, errS, variant := systemDSFused(g, cfg)
			sF, errF := simulate(core.FuseME{}, g, cfg)
			tab.AddRow(nodes, fmtTime(sS, errS), fmtTime(sF, errF), variant)
		}
		tables = append(tables, tab)
	}
	return tables, nil
}
