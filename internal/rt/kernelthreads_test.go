// Differential suite for intra-task kernel parallelism: on every backend,
// executing a plan with the kernel pool enabled must produce results
// bit-identical to the serial execution. The kernels partition disjoint
// output ranges and keep a fixed per-element accumulation order, so thread
// count must never show up in the output bits.
//
// The cluster is pinned to one slot so task scheduling — whose partial-
// aggregation arrival order is the one pre-existing source of run-to-run
// float reordering — is deterministic, isolating the property under test.
// Kernel threads follow GOMAXPROCS in the simulated cluster and on the
// worker alike, so the tests force a count by setting it.
package rt_test

import (
	"math"
	"testing"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/parallel/paralleltest"
	"fuseme/internal/rt"
	"fuseme/internal/rt/remote"
	"fuseme/internal/workloads"
)

// kernelThreadsConfig is deterministic by construction: one node, one slot.
func kernelThreadsConfig() cluster.Config {
	return cluster.Config{
		Nodes: 1, TasksPerNode: 1, TaskMemBytes: 1 << 30,
		NetBandwidth: 1e9, CompBandwidth: 50e9, BlockSize: 16,
		MaxTaskRetries: 2,
	}
}

// kernelBackends opens the sim and TCP backends. Both size their kernel
// pools from GOMAXPROCS: the simulated cluster now, the in-process worker at
// each task, as a worker process does.
func kernelBackends(t *testing.T) map[string]rt.Runtime {
	t.Helper()
	cfg := kernelThreadsConfig()
	w, err := remote.NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	co, err := remote.NewCoordinatorConfig(cfg, []string{w.Addr()}, remote.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	return map[string]rt.Runtime{
		"sim": cluster.MustNew(cfg),
		"tcp": co,
	}
}

// runKernelPlan executes the NMF kernel (masked matmul, dense matmuls,
// element-wise chains — every parallelized kernel family) on one backend.
func runKernelPlan(t *testing.T, rtm rt.Runtime) map[string]*block.Matrix {
	t.Helper()
	const rows, cols, k = 96, 80, 8
	inputs := map[string]*block.Matrix{
		"X": block.RandomSparse(rows, cols, 16, 0.05, 1, 5, 1),
		"U": block.RandomDense(rows, k, 16, 0.5, 1.5, 2),
		"V": block.RandomDense(cols, k, 16, 0.5, 1.5, 3),
	}
	g := workloads.NMFKernel(rows, cols, k, inputs["X"].Density())
	out, _, err := core.Run(core.FuseME{}, g, rtm, inputs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// requireBitIdentical compares two output sets element-wise on exact float64
// bits — no tolerance.
func requireBitIdentical(t *testing.T, label string, ref, got map[string]*block.Matrix) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d outputs, want %d", label, len(got), len(ref))
	}
	for name, want := range ref {
		m := got[name]
		if m == nil {
			t.Fatalf("%s: missing output %q", label, name)
		}
		if m.Rows != want.Rows || m.Cols != want.Cols {
			t.Fatalf("%s: output %q is %dx%d, want %dx%d", label, name, m.Rows, m.Cols, want.Rows, want.Cols)
		}
		for i := 0; i < want.Rows; i++ {
			for j := 0; j < want.Cols; j++ {
				w, g := want.At(i, j), m.At(i, j)
				if math.Float64bits(w) != math.Float64bits(g) {
					t.Fatalf("%s: output %q differs at (%d,%d): %v (%#x) vs %v (%#x)",
						label, name, i, j, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	}
}

// TestKernelThreadsBitIdentical runs the reference plan serial and with a
// 3-thread kernel pool on both backends and requires all four executions to
// agree bit for bit.
func TestKernelThreadsBitIdentical(t *testing.T) {
	paralleltest.ForceThreads(t, 1, 1)
	serial := kernelBackends(t)
	ref := runKernelPlan(t, serial["sim"])
	requireBitIdentical(t, "tcp serial vs sim serial", ref, runKernelPlan(t, serial["tcp"]))

	paralleltest.ForceThreads(t, 3, 1)
	threaded := kernelBackends(t)
	requireBitIdentical(t, "sim threads=3 vs sim serial", ref, runKernelPlan(t, threaded["sim"]))
	requireBitIdentical(t, "tcp threads=3 vs sim serial", ref, runKernelPlan(t, threaded["tcp"]))
	if threads := threaded["sim"].(*cluster.Cluster).KernelPool().Threads(); threads != 3 {
		t.Errorf("simulated cluster resolved %d kernel threads at GOMAXPROCS 3, want 3", threads)
	}
}
