package core_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/dag"
	"fuseme/internal/lang"
	"fuseme/internal/matrix"
	"fuseme/internal/rt"
	"fuseme/internal/rt/spec"
	"fuseme/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/stages.golden from this run")

// recorder is the in-process cluster with every dispatched stage descriptor
// recorded, with when it started and ended on one logical clock: it takes
// the descriptor path of rt.RunStage and forwards the stage to the embedded
// cluster. Stages of independent operators run at once, so the
// recorder is safe for concurrent use.
type recorder struct {
	*cluster.Cluster
	mu     sync.Mutex
	clock  int
	stages []recorded
}

// recorded is one dispatched stage: its descriptor and the clock readings
// at its start and end.
type recorded struct {
	spec       spec.Stage
	start, end int
}

func (r *recorder) tick() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clock++
	return r.clock
}

func (r *recorder) RunSpecStage(st *rt.Stage) error {
	start := r.tick()
	err := rt.RunStage(r.Cluster, st)
	end := r.tick()
	r.mu.Lock()
	r.stages = append(r.stages, recorded{spec: *st.Spec, start: start, end: end})
	r.mu.Unlock()
	return err
}

// planOrder returns the recorded stages in plan order — operator by
// operator, each operator's stages in its order — and fails t unless every
// stage of the plan ran once and none started before the stages it depends
// on ended: the stage before it in its operator, and every stage of the
// operators its operator reads.
func planOrder(t *testing.T, pp *core.PhysPlan, stages []recorded) []spec.Stage {
	t.Helper()
	byName := map[string]recorded{}
	for _, r := range stages {
		if _, dup := byName[r.spec.Name]; dup {
			t.Fatalf("stage %s dispatched twice", r.spec.Name)
		}
		byName[r.spec.Name] = r
	}
	var out []spec.Stage
	opEnd := make([]int, len(pp.Ops)) // when each operator's last stage ended
	for i, op := range pp.Ops {
		prevEnd := 0
		for _, st := range op.Lowered.Stages {
			r, ok := byName[st.Spec.Name]
			if !ok {
				t.Fatalf("stage %s never dispatched", st.Spec.Name)
			}
			if r.start < prevEnd {
				t.Errorf("stage %s started before the stage before it in its operator ended", st.Spec.Name)
			}
			for _, j := range pp.Producers(i) {
				if r.start < opEnd[j] {
					t.Errorf("stage %s of operator %d started before its producer, operator %d, ended", st.Spec.Name, i, j)
				}
			}
			prevEnd = r.end
			out = append(out, r.spec)
		}
		opEnd[i] = prevEnd
	}
	if len(out) != len(stages) {
		t.Fatalf("dispatched %d stages, the plan holds %d", len(stages), len(out))
	}
	return out
}

func mustParse(src string, decls map[string]lang.InputDecl) *dag.Graph {
	g, err := lang.Parse(src, decls)
	if err != nil {
		panic(err)
	}
	return g
}

// stageLine renders the fields of a dispatched stage the golden pins.
func stageLine(sp spec.Stage) string {
	spans := func(ss []spec.Span) string {
		var b strings.Builder
		for _, s := range ss {
			fmt.Fprintf(&b, "[%d,%d)", s.Lo, s.Hi)
		}
		return b.String()
	}
	group := make([]int, len(sp.Group))
	for i, p := range sp.Group {
		group[i] = p.Root
	}
	return fmt.Sprintf("%s phase=%s tasks=%d I=%s J=%s K=%s grid=%dx%dx%d colocated=%v swapped=%t broadcast=%t group=%v",
		sp.Name, sp.Phase, sp.NumTasks, spans(sp.IRanges), spans(sp.JRanges), spans(sp.KRanges),
		sp.GI, sp.GJ, sp.GK, sp.Colocated, sp.Swapped, sp.Broadcast, group)
}

// goldenConfig is the two-node, four-lane, 16-wide cluster the runtime
// conformance and pipeline suites run on.
func goldenConfig() cluster.Config {
	return cluster.Config{
		Nodes: 2, TasksPerNode: 4, TaskMemBytes: 1 << 30,
		NetBandwidth: 1e9, CompBandwidth: 50e9, BlockSize: 16,
		MaxTaskRetries: 2,
	}
}

// goldenCases are the workloads whose stage lists are pinned, at the shapes
// the runtime conformance and pipeline suites use.
func goldenCases() []struct {
	name   string
	engine core.Engine
	graph  *dag.Graph
	inputs map[string]*block.Matrix
} {
	const bs = 16
	gnmfX := block.RandomSparse(96, 80, bs, 0.05, 1, 5, 1)
	nmfX := block.RandomSparse(96, 80, bs, 0.05, 1, 5, 1)
	nmf := map[string]*block.Matrix{
		"X": nmfX,
		"U": block.RandomDense(96, 8, bs, 0.5, 1.5, 2),
		"V": block.RandomDense(80, 8, bs, 0.5, 1.5, 3),
	}
	// Block (0,0) dense: balancing moves the partition boundaries.
	skewX := block.RandomSparse(96, 80, bs, 0.02, 1, 5, 8)
	skewX.SetBlock(0, 0, matrix.RandomDense(bs, bs, 1, 5, 10))
	skewed := map[string]*block.Matrix{"X": skewX, "U": nmf["U"], "V": nmf["V"]}
	ae := workloads.AutoEncoderConfig{Features: 24, Batch: 16, H1: 8, H2: 4}
	st := workloads.InitAutoEncoder(ae, bs, 7)
	return []struct {
		name   string
		engine core.Engine
		graph  *dag.Graph
		inputs map[string]*block.Matrix
	}{
		{"gnmf", core.FuseME{}, workloads.GNMF(96, 80, 8, gnmfX.Density()), map[string]*block.Matrix{
			"X": gnmfX,
			"U": block.RandomDense(8, 80, bs, 0.5, 1.5, 2),
			"V": block.RandomDense(96, 8, bs, 0.5, 1.5, 3),
		}},
		{"autoencoder", core.FuseME{}, workloads.AutoEncoderStep(ae), map[string]*block.Matrix{
			"XT": block.RandomDense(ae.Features, ae.Batch, bs, 0, 1, 31),
			"W1": st.W1, "b1": st.B1, "W2": st.W2, "b2": st.B2,
			"W3": st.W3, "b3": st.B3, "W4": st.W4, "b4": st.B4,
		}},
		{"nmf-kernel", core.FuseME{}, workloads.NMFKernel(96, 80, 8, nmfX.Density()), nmf},
		{"nmf-kernel/systemds", core.SystemDSSim{}, workloads.NMFKernel(96, 80, 8, nmfX.Density()), nmf},
		{"nmf-kernel/balanced", core.FuseME{Balanced: true}, workloads.NMFKernel(96, 80, 8, skewX.Density()), skewed},
		{"transposed-root", core.FuseME{}, mustParse("O = t(U %*% t(V)) + 1", map[string]lang.InputDecl{
			"U": {Rows: 96, Cols: 8, Sparsity: 1}, "V": {Rows: 80, Cols: 8, Sparsity: 1},
		}), map[string]*block.Matrix{"U": nmf["U"], "V": nmf["V"]}},
		{"multiagg", core.FuseME{}, workloads.MultiAgg(96, 80, 0.2), map[string]*block.Matrix{
			"X": block.RandomSparse(96, 80, bs, 0.2, -1, 1, 4),
			"U": block.RandomDense(96, 80, bs, -1, 1, 5),
			"V": block.RandomDense(96, 80, bs, -1, 1, 6),
		}},
	}
}

// TestGoldenStageLists pins the stages each workload dispatches — name,
// phase, task count, partition ranges, grid, colocated inputs, plane swap,
// broadcast and multi-aggregation group — to testdata/stages.golden, in plan
// order, and checks that each started only after the stages it depends on
// ended (planOrder).
func TestGoldenStageLists(t *testing.T) {
	var b strings.Builder
	for _, c := range goldenCases() {
		rec := &recorder{Cluster: cluster.MustNew(goldenConfig())}
		pp, err := c.engine.Compile(c.graph, rec.Config())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := core.Execute(pp, rec, c.inputs); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "# %s (%s)\n", c.name, c.engine.Name())
		for _, sp := range planOrder(t, pp, rec.stages) {
			b.WriteString(stageLine(sp) + "\n")
		}
	}
	const path = "testdata/stages.golden"
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
		t.Errorf("dispatched stages differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestExecuteRefusesOtherBlockSize: a compiled plan carries stages lowered
// for its cluster's block size, so a runtime of another block size refuses
// it instead of running the wrong grid.
func TestExecuteRefusesOtherBlockSize(t *testing.T) {
	c := goldenCases()[2] // the NMF kernel, lowered at block size 16
	pp, err := c.engine.Compile(c.graph, goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	other := goldenConfig()
	other.BlockSize = 8
	inputs := map[string]*block.Matrix{}
	for name, m := range c.inputs {
		inputs[name] = block.FromMat(m.ToMat(), other.BlockSize)
	}
	_, err = core.Execute(pp, cluster.MustNew(other), inputs)
	if err == nil || !strings.Contains(err.Error(), "lowered for block size 16") {
		t.Fatalf("plan lowered at block size 16 ran on an 8-wide cluster: err = %v", err)
	}
}
