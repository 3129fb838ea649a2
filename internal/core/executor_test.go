package core_test

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fuseme/internal/block"
	"fuseme/internal/chaos/chaostest"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/matrix"
	"fuseme/internal/parallel/paralleltest"
	"fuseme/internal/rt"
	"fuseme/internal/rt/spec"
)

// hooked is the in-process cluster with a hook called before every task
// attempt of every stage, naming the stage: the test's view into which
// stages run when. It takes the descriptor path of rt.RunStage and forwards
// the stage to the cluster with the hook ahead of its task entry.
type hooked struct {
	*cluster.Cluster
	attempt func(stage string, task int) error
}

func (h *hooked) RunSpecStage(st *rt.Stage) error {
	cp := *st
	cp.RunTask = func(t *cluster.Task, fetch func(spec.BlockRef) (matrix.Mat, error), ahead func([]spec.BlockRef), emit func(uint8, int, int, matrix.Mat) error) error {
		if err := h.attempt(st.Name, t.ID); err != nil {
			return err
		}
		return st.RunTask(t, fetch, ahead, emit)
	}
	return rt.RunStage(h.Cluster, &cp)
}

// opOf returns the index of the operator that materialises output name.
func opOf(t *testing.T, pp *core.PhysPlan, name string) int {
	t.Helper()
	n, ok := pp.Graph.Outputs()[name]
	if !ok {
		t.Fatalf("no output %q", name)
	}
	for i, op := range pp.Ops {
		for _, root := range op.Lowered.Roots() {
			if root.ID == n.ID {
				return i
			}
		}
	}
	t.Fatalf("no operator materialises %q", name)
	return -1
}

// TestExecutorOverlapsIndependentOperators: GNMF's V2 does not read U2, so
// V2's first stage starts while U2's fuse stage runs. The hook holds U2's
// fuse task until a task of V2's CFO has started; an executor that ran the
// operators one after another would never start V2 while U2 is held, and
// the held task fails the query after the timeout instead.
func TestExecutorOverlapsIndependentOperators(t *testing.T) {
	c := goldenCases()[0]
	if c.name != "gnmf" {
		t.Fatalf("golden case 0 is %s, want gnmf", c.name)
	}
	// The sim runs at most GOMAXPROCS tasks at once: U2's two held fuse
	// tasks must leave V2's a slot.
	paralleltest.ForceThreads(t, 1, goldenConfig().TotalSlots())
	cl := cluster.MustNew(goldenConfig())
	pp, err := c.engine.Compile(c.graph, cl.Config())
	if err != nil {
		t.Fatal(err)
	}
	u2, v2 := opOf(t, pp, "U2"), opOf(t, pp, "V2")
	if slices.Contains(pp.Producers(v2), u2) {
		t.Fatalf("V2's operator %d reads U2's %d: the case is not the one meant", v2, u2)
	}
	u2Stages := pp.Ops[u2].Lowered.Stages
	if len(u2Stages) != 2 {
		t.Fatalf("U2's operator runs %d stages, want a partial and a fuse stage", len(u2Stages))
	}
	u2Fuse, v2First := u2Stages[1].Spec.Name, pp.Ops[v2].Lowered.Stages[0].Spec.Name
	v2Started := make(chan struct{})
	var once sync.Once
	h := &hooked{Cluster: cl, attempt: func(stage string, _ int) error {
		switch stage {
		case v2First:
			once.Do(func() { close(v2Started) })
		case u2Fuse:
			select {
			case <-v2Started:
			case <-time.After(30 * time.Second):
				return errors.New("no task of V2's operator started while U2's fuse task ran")
			}
		}
		return nil
	}}
	got, err := core.Execute(pp, h, c.inputs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Execute(pp, cluster.MustNew(goldenConfig()), c.inputs)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if digest(got[name]) != digest(w) {
			t.Errorf("%s differs from an unhooked run", name)
		}
	}
}

// TestExecutorDependencyOrder: over repeated runs of every golden workload,
// no stage starts before the stages it depends on have ended (planOrder),
// and every stage of the plan runs once.
func TestExecutorDependencyOrder(t *testing.T) {
	for run := 0; run < 10; run++ {
		for _, c := range goldenCases() {
			rec := &recorder{Cluster: cluster.MustNew(goldenConfig())}
			pp, err := c.engine.Compile(c.graph, rec.Config())
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if _, err := core.Execute(pp, rec, c.inputs); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			planOrder(t, pp, rec.stages)
		}
	}
}

// TestExecutorFirstErrorWins: when U %*% t(U), which V2 reads, fails for
// good, V2 never starts, the query returns that failure, and neither an
// operator goroutine of the executor nor a lane of the stage driver is left
// behind.
func TestExecutorFirstErrorWins(t *testing.T) {
	c := goldenCases()[0]
	cl := cluster.MustNew(goldenConfig())
	pp, err := c.engine.Compile(c.graph, cl.Config())
	if err != nil {
		t.Fatal(err)
	}
	v2 := opOf(t, pp, "V2")
	if len(pp.Producers(v2)) == 0 {
		t.Fatal("V2's operator reads no other operator: the case is not the one meant")
	}
	failing := pp.Ops[pp.Producers(v2)[0]].Lowered.Stages[0].Spec.Name
	v2Stages := map[string]bool{}
	for _, st := range pp.Ops[v2].Lowered.Stages {
		v2Stages[st.Spec.Name] = true
	}
	injected := errors.New("injected failure")
	var mu sync.Mutex
	var startedV2 []string
	h := &hooked{Cluster: cl, attempt: func(stage string, _ int) error {
		if v2Stages[stage] {
			mu.Lock()
			startedV2 = append(startedV2, stage)
			mu.Unlock()
		}
		if stage == failing {
			return injected
		}
		return nil
	}}
	_, err = core.Execute(pp, h, c.inputs)
	if !errors.Is(err, injected) || !strings.Contains(err.Error(), failing) {
		t.Fatalf("err = %v, want the injected failure of %s", err, failing)
	}
	if len(startedV2) > 0 {
		t.Errorf("V2's stages %v started after the operator they read failed", startedV2)
	}
	for _, frame := range []string{"core.(*PhysPlan).walk", "sched.(*Scheduler).Run"} {
		chaostest.WaitNoGoroutine(t, frame)
	}
}

// TestExecutorDeterminism: 20 runs of GNMF and of the AutoEncoder step, each
// on a fresh cluster and run twice, give the same output bits and the same
// exact counters — flops, bytes, stages, tasks, peak task memory and steals —
// however the operators' stages interleave.
func TestExecutorDeterminism(t *testing.T) {
	for _, c := range goldenCases()[:2] {
		t.Run(c.name, func(t *testing.T) {
			var first string
			for run := 0; run < 20; run++ {
				cfg := goldenConfig()
				cl := cluster.MustNew(cfg)
				pp, err := c.engine.Compile(c.graph, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var b strings.Builder
				for iter := 0; iter < 2; iter++ {
					before := cl.Stats()
					out, err := core.Execute(pp, cl, c.inputs)
					if err != nil {
						t.Fatal(err)
					}
					s := cl.Stats().Sub(before)
					fmt.Fprintf(&b, "flops=%d cons=%d agg=%d stages=%d tasks=%d peak=%d steals=%d\n",
						s.Flops, s.ConsolidationBytes, s.AggregationBytes, s.Stages, s.Tasks, s.PeakTaskMemBytes,
						s.StealTasks)
					names := make([]string, 0, len(out))
					for name := range out {
						names = append(names, name)
					}
					slices.Sort(names)
					for _, name := range names {
						fmt.Fprintf(&b, "%s=%x\n", name, digest(out[name]))
					}
				}
				if run == 0 {
					first = b.String()
					continue
				}
				if got := b.String(); got != first {
					t.Fatalf("run %d:\n%s\nrun 0:\n%s", run, got, first)
				}
			}
		})
	}
}

// digest hashes a matrix's shape and the bits of every element.
func digest(m *block.Matrix) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(m.Rows))
	mix(uint64(m.Cols))
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			mix(math.Float64bits(m.At(i, j)))
		}
	}
	return h
}
