// Differential suite for multi-aggregation as a descriptor stage: its sums
// fold through the task-ordered stage reducer like every other stage's, so
// they do not depend on which task finishes first, on the backend, on a
// retried task.
package exec_test

import (
	"math"
	"testing"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/lang"
	"fuseme/internal/rt"
)

const multiAggScript = "a = sum(X*Y); b = sum(X+Y); c = sum(X*X)"

// multiAggConfig is a 2 x 4 cluster: eight tasks over the 16 x 16 block grid
// of the 256 x 256 inputs.
func multiAggConfig() cluster.Config {
	cfg := pipelineTestConfig(2)
	cfg.BlockSize = 16
	return cfg
}

func multiAggInputs(bs int) map[string]*block.Matrix {
	return map[string]*block.Matrix{
		"X": block.RandomDense(256, 256, bs, -1, 1, 1),
		"Y": block.RandomDense(256, 256, bs, -1, 1, 2),
	}
}

// compileMultiAgg compiles the three-sum script and checks that it is what
// the suite is about: one MultiAgg operator of three plans.
func compileMultiAgg(t *testing.T, cfg cluster.Config, inputs map[string]*block.Matrix) *core.PhysPlan {
	t.Helper()
	decls := map[string]lang.InputDecl{}
	for name, m := range inputs {
		decls[name] = lang.InputDecl{Rows: m.Rows, Cols: m.Cols, Sparsity: 1}
	}
	g, err := lang.Parse(multiAggScript, decls)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := core.FuseME{}.Compile(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pp.Ops) != 1 || len(pp.Ops[0].Group) != 3 {
		t.Fatalf("script did not compile to one three-plan MultiAgg operator:\n%s", pp.Describe())
	}
	return pp
}

// sumBits executes the plan and returns the three sums' bit patterns.
func sumBits(t *testing.T, pp *core.PhysPlan, rtm rt.Runtime, inputs map[string]*block.Matrix) [3]uint64 {
	t.Helper()
	out, err := core.Execute(pp, rtm, inputs)
	if err != nil {
		t.Fatal(err)
	}
	return [3]uint64{math.Float64bits(out["a"].At(0, 0)), math.Float64bits(out["b"].At(0, 0)), math.Float64bits(out["c"].At(0, 0))}
}

// TestMultiAggBitStable: 200 runs of a three-sum multi-aggregation over eight
// tasks give one bit pattern per output on the simulated cluster and on two
// TCP workers, the two backends agree bit for bit, and so does a run whose
// tasks fail and are retried. (Before multi-aggregation ran through dispatch,
// tasks combined into the sinks as they finished and the sums wandered.)
func TestMultiAggBitStable(t *testing.T) {
	const runs = 200
	cfg := multiAggConfig()
	inputs := multiAggInputs(cfg.BlockSize)
	pp := compileMultiAgg(t, cfg, inputs)
	first := map[string][3]uint64{}
	for _, backend := range []string{"sim", "tcp"} {
		rtm := openBackend(t, backend, cfg)
		first[backend] = sumBits(t, pp, rtm, inputs)
		if tasks := rtm.Stats().Tasks; tasks != 8 { // the fresh runtime's one stage
			t.Fatalf("%s: stage ran %d tasks, want 8", backend, tasks)
		}
		for run := 1; run < runs; run++ {
			if got := sumBits(t, pp, rtm, inputs); got != first[backend] {
				t.Fatalf("%s: run %d gave %x, run 0 gave %x", backend, run, got, first[backend])
			}
		}
	}
	if first["sim"] != first["tcp"] {
		t.Errorf("sim %x != tcp %x", first["sim"], first["tcp"])
	}

	// Every task fails once, odd ones twice: each contributes once all the same.
	flaky := cfg
	flaky.InjectTaskFailure = func(taskID, attempt int) bool { return attempt <= taskID%2 }
	if got := sumBits(t, pp, openBackend(t, "sim", flaky), inputs); got != first["sim"] {
		t.Errorf("with injected task failures %x, clean run %x", got, first["sim"])
	}
}

// TestMultiAggReadsEachBlockOnce: a multi-aggregation's three sums read
// each block of X and of Y once per task, run after run: a task holds its 32
// blocks of each and no more, and over TCP the 512 blocks are requested once
// each.
func TestMultiAggReadsEachBlockOnce(t *testing.T) {
	cfg := multiAggConfig()
	inputs := multiAggInputs(cfg.BlockSize)
	pp := compileMultiAgg(t, cfg, inputs)
	held := int64(2 * 32 * cfg.BlockSize * cfg.BlockSize * 8)
	for _, backend := range []string{"sim", "tcp"} {
		rtm := openBackend(t, backend, cfg)
		for iter := 0; iter < 2; iter++ {
			before := rtm.Stats()
			sumBits(t, pp, rtm, inputs)
			s := rtm.Stats().Sub(before)
			if want := map[string]int64{"sim": 0, "tcp": 2 * 256}[backend]; s.PeakTaskMemBytes != held || s.FetchCalls != want {
				t.Errorf("%s iteration %d: peak task memory %d, %d fetches served; want %d and %d",
					backend, iter, s.PeakTaskMemBytes, s.FetchCalls, held, want)
			}
		}
	}
}
