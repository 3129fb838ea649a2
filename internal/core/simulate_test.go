package core_test

import (
	"fmt"
	"testing"

	"fuseme/internal/block"
	"fuseme/internal/core"
	"fuseme/internal/dag"
	"fuseme/internal/matrix"
	"fuseme/internal/workloads"
)

// workloadShape sizes every workload constructor of internal/workloads.
type workloadShape struct {
	rows, cols, k int
	density       float64
}

// everyWorkload builds each constructor of internal/workloads at shape s.
func everyWorkload(s workloadShape) map[string]*dag.Graph {
	return map[string]*dag.Graph{
		"nmf-kernel":    workloads.NMFKernel(s.rows, s.cols, s.k, s.density),
		"gnmf":          workloads.GNMF(s.rows, s.cols, s.k, s.density),
		"als-loss":      workloads.ALSLoss(s.rows, s.cols, s.k, s.density),
		"kl-divergence": workloads.KLDivergence(s.rows, s.cols, s.k, s.density),
		"pca":           workloads.PCA(s.rows, s.cols, s.k),
		"outer":         workloads.Outer(s.rows, s.cols, s.k, s.density),
		"multiagg":      workloads.MultiAgg(s.rows, s.cols, s.density),
		"autoencoder": workloads.AutoEncoderStep(workloads.AutoEncoderConfig{
			Features: s.rows, Batch: s.cols, H1: 2 * s.k, H2: s.k / 2}),
	}
}

// randomInputs binds every input of g to random values of its declared
// shape and sparsity, blocked at bs.
func randomInputs(g *dag.Graph, bs int) map[string]*block.Matrix {
	out := map[string]*block.Matrix{}
	for i, in := range g.InputNodes() {
		var m matrix.Mat
		if in.Sparsity < 1 {
			m = matrix.RandomSparse(in.Rows, in.Cols, in.Sparsity, 0.5, 1.5, int64(i+1))
		} else {
			m = matrix.RandomDense(in.Rows, in.Cols, 0.5, 1.5, int64(i+1))
		}
		out[in.Name] = block.FromMat(m, bs)
	}
	return out
}

// TestSimulateMatchesExecution holds the dry run to the plan it prices: for
// every workload constructor, engine, two shapes and two block sizes (8
// divides both shapes; 10 leaves a partial edge block on each), Simulate's
// stage and task counts equal what
// Execute meters on the simulated cluster, and its consolidation plus
// aggregation is the operators' estimated network bytes, each counted once.
// The simulated/metered ratios of bytes and flops are logged: they are the
// cost model's error, which this test does not bound.
func TestSimulateMatchesExecution(t *testing.T) {
	engines := []core.Engine{core.FuseME{}, core.FuseME{Balanced: true}, core.FuseME{NoMask: true},
		core.SystemDSSim{}, core.DistMESim{}, core.MatFastSim{}, core.TensorFlowSim{}}
	shapes := []workloadShape{{48, 40, 8, 0.1}, {96, 72, 12, 0.05}}
	t.Logf("%-14s %-16s %-10s %6s %6s %10s %10s", "workload", "engine", "shape/bs", "stages", "tasks", "bytes s/m", "flops s/m")
	for _, bs := range []int{8, 10} {
		rtm := testCluster(bs)
		cfg := rtm.Config()
		for _, s := range shapes {
			for _, name := range []string{"nmf-kernel", "gnmf", "als-loss", "kl-divergence", "pca", "outer", "multiagg", "autoencoder"} {
				for _, e := range engines {
					g := everyWorkload(s)[name] // a fresh graph per compile: engines annotate the nodes
					pp, err := e.Compile(g, cfg)
					if err != nil {
						t.Fatalf("%s/%s: compile: %v", name, e.Name(), err)
					}
					sim, err := core.Simulate(pp, cfg)
					if err != nil {
						t.Fatalf("%s/%s: simulate: %v", name, e.Name(), err)
					}
					rtm.ResetStats()
					if _, err := core.Execute(pp, rtm, randomInputs(g, bs)); err != nil {
						t.Fatalf("%s/%s: execute: %v", name, e.Name(), err)
					}
					meas := rtm.Stats()
					row := fmt.Sprintf("%s/%s %dx%d bs=%d", name, e.Name(), s.rows, s.cols, bs)
					if sim.Stages != meas.Stages || sim.Tasks != meas.Tasks {
						t.Errorf("%s: simulated %d stages / %d tasks, executed %d / %d",
							row, sim.Stages, sim.Tasks, meas.Stages, meas.Tasks)
					}
					var est int64
					for _, op := range pp.Ops {
						est += op.Est.NetBytes
					}
					if got := sim.ConsolidationBytes + sim.AggregationBytes; got != est {
						t.Errorf("%s: simulated consolidation+aggregation %d B, operators estimate %d B", row, got, est)
					}
					t.Logf("%-14s %-16s %3dx%-3d/%-2d %6d %6d %10.3g %10.3g", name, e.Name(), s.rows, s.cols, bs,
						sim.Stages, sim.Tasks, ratio(sim.TotalCommBytes(), meas.TotalCommBytes()), ratio(sim.Flops, meas.Flops))
				}
			}
		}
	}
}

// ratio is a/b: NaN or +Inf when nothing was metered.
func ratio(a, b int64) float64 { return float64(a) / float64(b) }
