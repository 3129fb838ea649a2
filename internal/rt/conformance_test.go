// Runtime conformance suite: every rt.Runtime backend must execute the same
// plans with the same stats classification and the same results. The suite
// runs each check against the in-process simulated cluster and the TCP
// coordinator (backed by in-process workers) and compares them pairwise.
package rt_test

import (
	"encoding/json"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/dag"
	"fuseme/internal/lang"
	"fuseme/internal/obs"
	"fuseme/internal/rt"
	"fuseme/internal/rt/remote"
	"fuseme/internal/workloads"
)

// conformanceConfig is the laptop-scale cluster shape every backend is
// opened with. The coordinator overrides Nodes with its worker count, so the
// TCP backend is started with exactly conformanceConfig.Nodes workers.
func conformanceConfig() cluster.Config {
	return cluster.Config{
		Nodes: 2, TasksPerNode: 4, TaskMemBytes: 1 << 30,
		NetBandwidth: 1e9, CompBandwidth: 50e9, BlockSize: 16,
		MaxTaskRetries: 2,
	}
}

// backends returns the named runtime constructors under test.
func backends() map[string]func(t *testing.T) rt.Runtime {
	return backendsWith(conformanceConfig())
}

// backendsWith returns the runtime constructors over cluster shape cfg.
func backendsWith(cfg cluster.Config) map[string]func(t *testing.T) rt.Runtime {
	return map[string]func(t *testing.T) rt.Runtime{
		"sim": func(t *testing.T) rt.Runtime {
			return cluster.MustNew(cfg)
		},
		"tcp": func(t *testing.T) rt.Runtime {
			addrs := make([]string, cfg.Nodes)
			for i := range addrs {
				w, err := remote.NewWorker("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { w.Close() })
				addrs[i] = w.Addr()
			}
			co, err := remote.NewCoordinatorConfig(cfg, addrs, remote.Config{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { co.Close() })
			return co
		},
	}
}

// planRun is one backend's observation of the reference plan: outputs plus
// the stats the classification checks compare.
type planRun struct {
	out   map[string]*block.Matrix
	stats cluster.Stats
}

// referencePlan is the NMF kernel (the paper's running example, fusing a
// sparse-masked multiplication chain) and its inputs.
func referencePlan() (*dag.Graph, map[string]*block.Matrix) {
	const rows, cols, k = 96, 80, 8
	inputs := map[string]*block.Matrix{
		"X": block.RandomSparse(rows, cols, 16, 0.05, 1, 5, 1),
		"U": block.RandomDense(rows, k, 16, 0.5, 1.5, 2),
		"V": block.RandomDense(cols, k, 16, 0.5, 1.5, 3),
	}
	return workloads.NMFKernel(rows, cols, k, inputs["X"].Density()), inputs
}

// runReferencePlan executes the reference plan on one backend.
func runReferencePlan(t *testing.T, rtm rt.Runtime) planRun {
	t.Helper()
	g, inputs := referencePlan()
	out, stats, err := core.Run(core.FuseME{}, g, rtm, inputs)
	if err != nil {
		t.Fatal(err)
	}
	return planRun{out: out, stats: stats}
}

// TestRuntimeConformancePlan requires every backend to agree with the
// simulated cluster on the reference plan: identical scheduling counts and
// flops, wire bytes classified into the same classes, and identical result
// bytes.
func TestRuntimeConformancePlan(t *testing.T) {
	ctors := backends()
	ref := runReferencePlan(t, ctors["sim"](t))
	for name, open := range ctors {
		if name == "sim" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			got := runReferencePlan(t, open(t))

			// Scheduling and computation classify identically: the same
			// plan compiles to the same stages, tasks and arithmetic.
			if got.stats.Stages != ref.stats.Stages {
				t.Errorf("stages = %d, sim ran %d", got.stats.Stages, ref.stats.Stages)
			}
			if got.stats.Tasks != ref.stats.Tasks {
				t.Errorf("tasks = %d, sim ran %d", got.stats.Tasks, ref.stats.Tasks)
			}
			if got.stats.Flops != ref.stats.Flops {
				t.Errorf("flops = %d, sim executed %d", got.stats.Flops, ref.stats.Flops)
			}
			if got.stats.MaxTaskFlops != ref.stats.MaxTaskFlops {
				t.Errorf("max task flops = %d, sim %d", got.stats.MaxTaskFlops, ref.stats.MaxTaskFlops)
			}

			// Wire bytes land in the same classes. Absolute volumes differ
			// (the simulation meters in-memory block sizes, real backends
			// meter encoded wire bytes), so classification conformance is:
			// a class is zero on one backend iff it is zero on the other,
			// and nonzero classes agree within 2x.
			classes := []struct {
				name     string
				ref, got int64
			}{
				{"consolidation", ref.stats.ConsolidationBytes, got.stats.ConsolidationBytes},
				{"aggregation", ref.stats.AggregationBytes, got.stats.AggregationBytes},
			}
			for _, c := range classes {
				if (c.ref == 0) != (c.got == 0) {
					t.Errorf("%s bytes = %d, sim metered %d: classified differently", c.name, c.got, c.ref)
					continue
				}
				if c.ref > 0 && (c.got > 2*c.ref || c.ref > 2*c.got) {
					t.Errorf("%s bytes = %d not within 2x of sim's %d", c.name, c.got, c.ref)
				}
			}

			// Results are byte-identical: same outputs, same block storage
			// footprint, same values.
			if len(got.out) != len(ref.out) {
				t.Fatalf("outputs = %d, sim produced %d", len(got.out), len(ref.out))
			}
			for name, want := range ref.out {
				m := got.out[name]
				if m == nil {
					t.Fatalf("missing output %q", name)
				}
				if m.SizeBytes() != want.SizeBytes() {
					t.Errorf("output %q: %d stored bytes, sim %d", name, m.SizeBytes(), want.SizeBytes())
				}
				if m.Rows != want.Rows || m.Cols != want.Cols {
					t.Fatalf("output %q: %dx%d, sim %dx%d", name, m.Rows, m.Cols, want.Rows, want.Cols)
				}
				for i := 0; i < want.Rows; i++ {
					for j := 0; j < want.Cols; j++ {
						w, g := want.At(i, j), m.At(i, j)
						if math.Abs(g-w) > 1e-12*math.Max(1, math.Abs(w)) {
							t.Fatalf("output %q differs at (%d,%d): %g vs %g", name, i, j, g, w)
						}
					}
				}
			}
		})
	}
}

// wideRuntime is a coordinator that reports a wider cluster than it
// dispatches to: plans compile for cfg, and lowered stages keep the task
// counts cfg gives them, while the coordinator runs them on its own lanes.
type wideRuntime struct {
	*remote.Coordinator
	cfg cluster.Config
}

func (w wideRuntime) Config() cluster.Config { return w.cfg }

// pipelineBackends returns the runtime constructors of backends, but with
// the TCP coordinator running on one lane per worker while plans still
// compile for conformanceConfig's four: every worker runs its share of a
// stage sequentially from a queue, and an idle lane may steal.
func pipelineBackends() map[string]func(t *testing.T) rt.Runtime {
	return map[string]func(t *testing.T) rt.Runtime{
		"sim": func(t *testing.T) rt.Runtime {
			return cluster.MustNew(conformanceConfig())
		},
		"tcp": func(t *testing.T) rt.Runtime {
			cfg := conformanceConfig()
			addrs := make([]string, cfg.Nodes)
			for i := range addrs {
				w, err := remote.NewWorker("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { w.Close() })
				addrs[i] = w.Addr()
			}
			lanes := cfg
			lanes.TasksPerNode = 1
			co, err := remote.NewCoordinatorConfig(lanes, addrs, remote.Config{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { co.Close() })
			return wideRuntime{Coordinator: co, cfg: cfg}
		},
	}
}

// runTracedPlan executes the reference plan with tracing enabled and returns
// the spans of its rendered trace. For the TCP backend the coordinator must
// already have its trace bit set (SetObs) before stages run.
func runTracedPlan(t *testing.T, rtm rt.Runtime, o *obs.Obs, tl *obs.Timeline) []obs.TraceEvent {
	t.Helper()
	const rows, cols, k = 96, 80, 8
	inputs := map[string]*block.Matrix{
		"X": block.RandomSparse(rows, cols, 16, 0.05, 1, 5, 1),
		"U": block.RandomDense(rows, k, 16, 0.5, 1.5, 2),
		"V": block.RandomDense(cols, k, 16, 0.5, 1.5, 3),
	}
	g := workloads.NMFKernel(rows, cols, k, inputs["X"].Density())
	if _, _, err := core.RunObs(core.FuseME{}, g, rtm, inputs, o); err != nil {
		t.Fatal(err)
	}
	doc, err := obs.ChromeTrace(tl.Events())
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &trace); err != nil {
		t.Fatal(err)
	}
	return trace.TraceEvents
}

// tracedObs returns an Obs that traces onto a timeline of its own, and the
// timeline.
func tracedObs() (*obs.Obs, *obs.Timeline) {
	tl := new(obs.Timeline)
	return &obs.Obs{Trace: true, QLog: obs.NewQueryLog(nil, "q1", "").Tee(tl)}, tl
}

// spanCounts tallies events by "cat/name", restricted to the task-execution
// taxonomy both backends must agree on: whole-task spans (cat "task") and the
// fetch/kernel/send sub-spans (cat "taskop"). Scheduling spans (cat
// "sched", coordinator-only) and stage/plan spans are outside the parity
// contract.
func spanCounts(events []obs.TraceEvent) map[string]int {
	counts := make(map[string]int)
	for _, ev := range events {
		if ev.Cat != "task" && ev.Cat != "taskop" {
			continue
		}
		counts[ev.Cat+"/"+ev.Name]++
	}
	return counts
}

// TestRuntimeConformanceSpans requires both backends to record the same task
// spans for the same plan: one whole-task span per task and identical
// fetch/kernel/send sub-span counts — span parity by construction, since both
// run the identical executor task body.
func TestRuntimeConformanceSpans(t *testing.T) {
	ctors := backends()
	simObs, simTL := tracedObs()
	simCounts := spanCounts(runTracedPlan(t, ctors["sim"](t), simObs, simTL))
	if len(simCounts) == 0 {
		t.Fatal("sim backend recorded no task spans")
	}
	for key := range simCounts {
		if key == "task/" {
			t.Fatalf("unnamed task span in %v", simCounts)
		}
	}
	for name, open := range ctors {
		if name == "sim" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			rtm := open(t)
			o, tl := tracedObs()
			got := spanCounts(runTracedPlan(t, rtm, o, tl))
			if len(got) != len(simCounts) {
				t.Errorf("span kinds = %d, sim recorded %d:\n got %v\n sim %v",
					len(got), len(simCounts), got, simCounts)
			}
			for key, want := range simCounts {
				if got[key] != want {
					t.Errorf("span %q: count %d, sim recorded %d", key, got[key], want)
				}
			}
		})
	}
}

// TestRuntimeConformanceInjectedRetries requires one injected-failure pattern
// to behave alike on both backends: the stage driver consults
// InjectTaskFailure before each attempt on either runtime, equally often, and
// an injected attempt runs nothing. Results are bit-identical across backends
// and to a clean run, Stages, Tasks and Flops are equal, and the TCP backend
// ships exactly the clean run's wire bytes.
func TestRuntimeConformanceInjectedRetries(t *testing.T) {
	flaky := func(calls *atomic.Int64) cluster.Config {
		cfg := conformanceConfig()
		cfg.InjectTaskFailure = func(taskID, attempt int) bool {
			calls.Add(1)
			return attempt <= taskID%2 // within MaxTaskRetries 2
		}
		return cfg
	}
	var simCalls, tcpCalls atomic.Int64
	ref := runReferencePlan(t, backendsWith(flaky(&simCalls))["sim"](t))
	runs := map[string]planRun{
		"injected tcp": runReferencePlan(t, backendsWith(flaky(&tcpCalls))["tcp"](t)),
		"clean sim":    runReferencePlan(t, backends()["sim"](t)),
		"clean tcp":    runReferencePlan(t, backends()["tcp"](t)),
	}
	if sim, tcp := simCalls.Load(), tcpCalls.Load(); sim != tcp || sim <= int64(ref.stats.Tasks) {
		t.Errorf("InjectTaskFailure consulted %d times on sim and %d on tcp over %d tasks; want equal, above the task count",
			sim, tcp, ref.stats.Tasks)
	}
	for name, run := range runs {
		s, r := run.stats, ref.stats
		if s.Stages != r.Stages || s.Tasks != r.Tasks || s.Flops != r.Flops {
			t.Errorf("%s: %d stages / %d tasks / %d flops, injected sim %d / %d / %d",
				name, s.Stages, s.Tasks, s.Flops, r.Stages, r.Tasks, r.Flops)
		}
		for out, want := range ref.out {
			got := run.out[out]
			for i := 0; i < want.Rows; i++ {
				for j := 0; j < want.Cols; j++ {
					if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
						t.Fatalf("%s: output %q differs at (%d,%d): %v vs injected sim %v", name, out, i, j, got.At(i, j), want.At(i, j))
					}
				}
			}
		}
	}
	wire := func(s cluster.Stats) int64 { return s.TotalCommBytes() + s.ExtraWireBytes }
	if got, want := wire(runs["injected tcp"].stats), wire(runs["clean tcp"].stats); got != want {
		t.Errorf("injected tcp shipped %d wire bytes, the clean run %d", got, want)
	}
}

// TestRuntimeConformanceClosureStage requires a bare closure handed to
// Runtime.RunStage (no executor stage is one any more) to run every task
// exactly once on the sim, with its stage and task accounting, and the TCP
// coordinator to refuse it (remote.ErrNoDescriptor) without counting a
// stage: its tasks run on the workers, which only run descriptors.
func TestRuntimeConformanceClosureStage(t *testing.T) {
	const numTasks = 8
	for name, open := range backends() {
		t.Run(name, func(t *testing.T) {
			rtm := open(t)
			var ran atomic.Int64
			err := rtm.RunStage("closure-only", numTasks, func(task *cluster.Task) error {
				ran.Add(1)
				return nil
			})
			s := rtm.Stats()
			if name == "tcp" {
				if !errors.Is(err, remote.ErrNoDescriptor) {
					t.Errorf("RunStage(closure) = %v, want ErrNoDescriptor", err)
				}
				if ran.Load() != 0 || s.Stages != 0 || s.Tasks != 0 {
					t.Errorf("refused closure ran %d times, stats %d stages / %d tasks; want none", ran.Load(), s.Stages, s.Tasks)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if ran.Load() != numTasks {
				t.Errorf("closure ran %d times, want %d", ran.Load(), numTasks)
			}
			if s.Stages != 1 || s.Tasks != numTasks {
				t.Errorf("stats = %d stages / %d tasks, want 1 / %d", s.Stages, s.Tasks, numTasks)
			}
		})
	}
}

// TestRuntimeConformanceAdmission requires identical admission control
// through execution, priced from the plan by core.Simulate: a plan whose
// operators each need more per-task memory than the runtime's budget θt
// fails core.Execute with cluster.ErrOutOfMemory, and one whose Simulate
// clock passes SimTimeLimit with cluster.ErrTimeout, on every backend, and
// no stage runs.
func TestRuntimeConformanceAdmission(t *testing.T) {
	g, inputs := referencePlan()
	pp, err := core.FuseME{}.Compile(g, conformanceConfig())
	if err != nil {
		t.Fatal(err)
	}
	overBudget := conformanceConfig()
	for _, op := range pp.Ops {
		overBudget.TaskMemBytes = min(overBudget.TaskMemBytes, op.Est.MemPerTask-1)
	}
	sim, err := core.Simulate(pp, conformanceConfig())
	if err != nil {
		t.Fatal(err)
	}
	overLimit := conformanceConfig()
	overLimit.SimTimeLimit = math.Nextafter(sim.SimSeconds, 0)
	arms := []struct {
		name string
		cfg  cluster.Config
		want error
	}{{"oom", overBudget, cluster.ErrOutOfMemory}, {"timeout", overLimit, cluster.ErrTimeout}}
	for name := range backends() {
		t.Run(name, func(t *testing.T) {
			for _, arm := range arms {
				t.Run(arm.name, func(t *testing.T) {
					rtm := backendsWith(arm.cfg)[name](t)
					if _, err := core.Execute(pp, rtm, inputs); !errors.Is(err, arm.want) {
						t.Errorf("Execute = %v, want %v", err, arm.want)
					}
					if s := rtm.Stats(); s.Stages != 0 || s.Tasks != 0 {
						t.Errorf("a rejected plan ran %d stages / %d tasks", s.Stages, s.Tasks)
					}
				})
			}
		})
	}
}

// TestRuntimeConformanceStatsReset requires ResetStats to zero the
// accumulated counters on every backend.
func TestRuntimeConformanceStatsReset(t *testing.T) {
	for name, open := range backends() {
		t.Run(name, func(t *testing.T) {
			rtm := open(t)
			_ = runReferencePlan(t, rtm)
			if rtm.Stats().Tasks == 0 {
				t.Fatal("plan ran no tasks")
			}
			rtm.ResetStats()
			s := rtm.Stats()
			if s.Tasks != 0 || s.Stages != 0 || s.TotalCommBytes() != 0 || s.Flops != 0 {
				t.Errorf("stats after reset = %+v, want zeroes", s)
			}
		})
	}
}

// TestRuntimeConformanceMultiAgg requires a multi-aggregation (Figure 2(d):
// several sums over one plane, one stage) to run as the same stage on every
// backend — on TCP by the workers, with the runtime's own measured wall time and
// wire accounting rather than the coordinator process's model of them.
func TestRuntimeConformanceMultiAgg(t *testing.T) {
	const rows, cols = 96, 80
	inputs := map[string]*block.Matrix{
		"X": block.RandomSparse(rows, cols, 16, 0.2, -1, 1, 1),
		"U": block.RandomDense(rows, cols, 16, -1, 1, 2),
		"w": block.RandomDense(1, cols, 16, -1, 1, 3),
	}
	// U and X are shaped like the plane (co-partitioned: no consolidation in
	// the model, extra wire bytes on TCP); the row vector w is consolidated.
	g, err := lang.Parse("s1 = sum(U * X); s2 = colSums(X * w)", map[string]lang.InputDecl{
		"X": {Rows: rows, Cols: cols, Sparsity: 0.2},
		"U": {Rows: rows, Cols: cols, Sparsity: 1},
		"w": {Rows: 1, Cols: cols, Sparsity: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]planRun{}
	for name, open := range backends() {
		rtm := open(t)
		pp, err := core.FuseME{}.Compile(g, rtm.Config())
		if err != nil {
			t.Fatal(err)
		}
		if len(pp.Ops) != 1 || len(pp.Ops[0].Group) != 2 {
			t.Fatalf("not one two-plan MultiAgg operator:\n%s", pp.Describe())
		}
		out, err := core.Execute(pp, rtm, inputs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runs[name] = planRun{out: out, stats: rtm.Stats()} // the one stage the fresh runtime ran
	}
	sim, tcp := runs["sim"].stats, runs["tcp"].stats
	if sim.Stages != 1 || tcp.Stages != 1 || tcp.Tasks != sim.Tasks || tcp.Flops != sim.Flops || tcp.MaxTaskFlops != sim.MaxTaskFlops {
		t.Errorf("tcp ran %d stages / %d tasks / %d flops (max %d), sim %d / %d / %d (max %d)",
			tcp.Stages, tcp.Tasks, tcp.Flops, tcp.MaxTaskFlops, sim.Stages, sim.Tasks, sim.Flops, sim.MaxTaskFlops)
	}
	if sim.SimSeconds != 0 || tcp.SimSeconds != 0 || sim.WallSeconds <= 0 || tcp.WallSeconds <= 0 {
		t.Errorf("stage seconds: sim %v simulated / %v wall, tcp %v / %v; want no clock and a measured wall on both",
			sim.SimSeconds, sim.WallSeconds, tcp.SimSeconds, tcp.WallSeconds)
	}
	if sim.ConsolidationBytes <= 0 || tcp.ConsolidationBytes <= 0 || tcp.ConsolidationBytes > 2*sim.ConsolidationBytes {
		t.Errorf("consolidation (the row vector): tcp %d bytes, sim %d", tcp.ConsolidationBytes, sim.ConsolidationBytes)
	}
	if sim.AggregationBytes <= 0 || tcp.AggregationBytes <= 0 || tcp.AggregationBytes > 2*sim.AggregationBytes {
		t.Errorf("aggregation: tcp %d bytes, sim %d", tcp.AggregationBytes, sim.AggregationBytes)
	}
	if sim.ExtraWireBytes != 0 || tcp.ExtraWireBytes <= 0 {
		t.Errorf("extra wire bytes (the plane-shaped inputs): tcp %d, sim %d", tcp.ExtraWireBytes, sim.ExtraWireBytes)
	}
	for name, want := range runs["sim"].out {
		got := runs["tcp"].out[name]
		for j := 0; j < want.Cols; j++ {
			if math.Float64bits(got.At(0, j)) != math.Float64bits(want.At(0, j)) {
				t.Fatalf("output %q differs at column %d: tcp %v, sim %v", name, j, got.At(0, j), want.At(0, j))
			}
		}
	}
}
