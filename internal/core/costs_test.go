package core_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/dag"
	"fuseme/internal/workloads"
)

// localConfig is fuseme.LocalClusterConfig as a session resolves it: two
// nodes of four lanes, 64-wide blocks and a 5 ms wave overhead.
func localConfig() cluster.Config {
	return cluster.Config{
		Nodes: 2, TasksPerNode: 4, TaskMemBytes: 4 << 30,
		NetBandwidth: 1e9, CompBandwidth: 50e9, BlockSize: 64,
		TaskOverhead: 0.005, MaxTaskRetries: 2,
	}
}

// TestGoldenPricedOutputs pins every number the Eq. 2 model prices — the
// -explain text (DescribeCosts) and the core.Simulate dry run, whose clock is
// also the journal's predicted time — for the GNMF, AutoEncoder and NMF-kernel graphs under the local and
// the paper cluster to testdata/costs.golden. Floats print in full so a moved bit shows.
func TestGoldenPricedOutputs(t *testing.T) {
	local := func() map[string]*dag.Graph {
		return map[string]*dag.Graph{
			"gnmf":        workloads.GNMF(2000, 1500, 32, 0.01),
			"autoencoder": workloads.AutoEncoderStep(workloads.AutoEncoderConfig{Features: 1000, Batch: 256, H1: 100, H2: 10}),
			"nmf-kernel":  workloads.NMFKernel(4000, 3000, 32, 0.01),
		}
	}
	paper := func() map[string]*dag.Graph {
		return map[string]*dag.Graph{
			"gnmf":        workloads.GNMF(480_189, 17_770, 200, 0.0118),
			"autoencoder": workloads.AutoEncoderStep(workloads.AutoEncoderConfig{Features: 10_000, Batch: 1024, H1: 500, H2: 2}),
			"nmf-kernel":  workloads.NMFKernel(1_000_000, 1_000_000, 5000, 0.001),
		}
	}
	clusters := []struct {
		name   string
		cfg    cluster.Config
		graphs func() map[string]*dag.Graph
	}{
		{"local", localConfig(), local},
		{"paper", cluster.Default(), paper},
	}
	var b strings.Builder
	for _, cl := range clusters {
		cfg := cl.cfg
		for _, name := range []string{"gnmf", "autoencoder", "nmf-kernel"} {
			for _, e := range []core.Engine{core.FuseME{}, core.SystemDSSim{}} {
				// A fresh graph per compile: engines annotate the nodes.
				g := cl.graphs()[name]
				fmt.Fprintf(&b, "# %s %s (%s)\n", cl.name, name, e.Name())
				pp, err := e.Compile(g, cfg)
				if err != nil {
					fmt.Fprintf(&b, "compile: %v\n", err)
					continue
				}
				b.WriteString(pp.DescribeCosts(cfg))
				// The simulated clock to 12 digits: the golden was written
				// when Simulate summed its dependency levels in map order,
				// which moved the last bit between runs.
				// Only the fields Simulate prices print, by name, so a
				// counter added to cluster.Stats leaves the golden alone.
				s, err := core.Simulate(pp, cfg)
				fmt.Fprintf(&b, "simulate: %.12g s consolidation=%d aggregation=%d flops=%d stages=%d tasks=%d peak_task_mem=%d err=%v\n",
					s.SimSeconds, s.ConsolidationBytes, s.AggregationBytes, s.Flops, s.Stages, s.Tasks, s.PeakTaskMemBytes, err)
			}
		}
	}
	const path = "testdata/costs.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("priced outputs differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
