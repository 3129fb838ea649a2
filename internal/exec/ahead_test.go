package exec_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/dag"
	"fuseme/internal/exec"
	"fuseme/internal/lang"
	"fuseme/internal/matrix"
	"fuseme/internal/rt"
	"fuseme/internal/rt/spec"
	"fuseme/internal/workloads"
)

// aheadRecorder runs every stage as a worker does — the shipped descriptor
// rebuilt, each task through Stage.RunTask, blocks from the coordinator-side
// Fetch, results through Collect — and checks each task's hint lists
// against the fetches that follow them (checkAhead). Stages of independent
// operators run at once, so hinted is under mu.
type aheadRecorder struct {
	*cluster.Cluster
	t      *testing.T
	mu     sync.Mutex
	hinted map[string]int // hinted references per stage phase
}

// hint is one list a task named ahead, and how many fetches preceded it.
type hint struct {
	at   int
	refs []spec.BlockRef
}

func (r *aheadRecorder) RunSpecStage(st *rt.Stage) error {
	stage, err := exec.NewSpecStage(st.Spec)
	if err != nil {
		return err
	}
	for id := 0; id < st.NumTasks; id++ {
		var (
			fetched []spec.BlockRef
			hints   []hint
			blocks  []spec.OutBlock
		)
		fetch := func(ref spec.BlockRef) (matrix.Mat, error) {
			fetched = append(fetched, ref)
			return st.Fetch(ref)
		}
		ahead := func(refs []spec.BlockRef) { hints = append(hints, hint{len(fetched), slices.Clone(refs)}) }
		emit := func(kind uint8, bi, bj int, blk matrix.Mat) error {
			blocks = append(blocks, spec.OutBlock{Kind: kind, BI: bi, BJ: bj, Block: blk})
			return nil
		}
		if err := stage.RunTask(&cluster.Task{ID: id}, fetch, ahead, emit); err != nil {
			return err
		}
		what := fmt.Sprintf("%s task %d", st.Name, id)
		checkAhead(r.t, what, hints, fetched)
		r.mu.Lock()
		for _, h := range hints {
			r.hinted[st.Spec.Phase] += len(h.refs)
		}
		r.mu.Unlock()
		if err := st.Collect(id, blocks); err != nil {
			return err
		}
	}
	return nil
}

// checkAhead holds one task's hint lists to its fetches: every reference a
// list names is fetched after the list, in the list's order; no reference is
// named twice; none the task fetched before is named.
func checkAhead(t *testing.T, what string, hints []hint, fetched []spec.BlockRef) {
	t.Helper()
	named := map[spec.BlockRef]bool{}
	for _, h := range hints {
		next := h.at
		for _, ref := range h.refs {
			if named[ref] {
				t.Errorf("%s: %+v named ahead twice", what, ref)
			}
			named[ref] = true
			if slices.Contains(fetched[:h.at], ref) {
				t.Errorf("%s: %+v named ahead after it was fetched", what, ref)
			}
			i := slices.Index(fetched[next:], ref)
			if i < 0 {
				t.Errorf("%s: %+v named ahead, not fetched after it in the list's order (fetches %v, list %v)", what, ref, fetched[h.at:], h.refs)
				continue
			}
			next += i + 1
		}
	}
}

// TestAheadNamesWhatTheTaskFetches runs GNMF (its partial, fuse, local and
// grid tasks) and the AutoEncoder train step (its backward CFOs run as
// one-stage cuboid tasks) through aheadRecorder and requires the results of the
// simulated cluster bit for bit. rt.RunStage's in-process arm hands the task
// entry no read-ahead hook, plain or traced, so a simulated task builds no
// hint list.
func TestAheadNamesWhatTheTaskFetches(t *testing.T) {
	const bs = 16
	cfg := pipelineTestConfig(2)
	cfg.TasksPerNode = 1 // the repo benchmark's two lanes: GNMF plans partial, fuse and local stages
	for _, trace := range []bool{false, true} {
		probe := &rt.Stage{Name: "probe", NumTasks: 2, Trace: trace,
			RunTask: func(_ *cluster.Task, _ func(spec.BlockRef) (matrix.Mat, error), ahead func([]spec.BlockRef), _ func(uint8, int, int, matrix.Mat) error) error {
				if ahead != nil {
					return fmt.Errorf("the in-process arm offers a read-ahead hook (traced %v)", trace)
				}
				return nil
			},
			Collect: func(int, []spec.OutBlock) error { return nil }}
		if err := rt.RunStage(cluster.MustNew(cfg), probe); err != nil {
			t.Fatal(err)
		}
	}
	x := block.RandomSparse(160, 48, bs, 0.1, 1, 5, 1)
	ae := workloads.AutoEncoderConfig{Features: 40, Batch: 24, H1: 20, H2: 8}
	st := workloads.InitAutoEncoder(ae, bs, 7)
	a := block.RandomDense(64, 40, bs, -1, 1, 5)
	gram, err := lang.Parse("G = t(A) %*% A", map[string]lang.InputDecl{"A": {Rows: 64, Cols: 40, Sparsity: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		graph  *dag.Graph
		inputs map[string]*block.Matrix
		phases []string
	}{
		{"gnmf", workloads.GNMF(160, 48, 8, x.Density()), map[string]*block.Matrix{
			"X": x,
			"U": block.RandomDense(8, 48, bs, 0.2, 0.8, 2),
			"V": block.RandomDense(160, 8, bs, 0.2, 0.8, 3),
		}, []string{spec.PhasePartial, spec.PhaseFuse, spec.PhaseCuboid}},
		{"autoencoder", workloads.AutoEncoderStep(ae), map[string]*block.Matrix{
			"XT": block.RandomDense(ae.Features, ae.Batch, bs, 0, 1, 31),
			"W1": st.W1, "b1": st.B1, "W2": st.W2, "b2": st.B2,
			"W3": st.W3, "b3": st.B3, "W4": st.W4, "b4": st.B4,
		}, []string{spec.PhaseCuboid}},
		// A Gram matrix reads one block as both operands on the diagonal.
		{"gram", gram, map[string]*block.Matrix{"A": a}, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, _, err := core.Run(core.FuseME{}, c.graph, cluster.MustNew(cfg), c.inputs)
			if err != nil {
				t.Fatal(err)
			}
			rec := &aheadRecorder{Cluster: cluster.MustNew(cfg), t: t, hinted: map[string]int{}}
			got, _, err := core.Run(core.FuseME{}, c.graph, rec, c.inputs)
			if err != nil {
				t.Fatal(err)
			}
			for name, w := range want {
				requireBitIdentical(t, name, got[name], w)
			}
			for _, phase := range c.phases {
				if rec.hinted[phase] == 0 {
					t.Errorf("no %s task named a block ahead (%v)", phase, rec.hinted)
				}
			}
			t.Logf("references named ahead per phase: %v", rec.hinted)
		})
	}
}
