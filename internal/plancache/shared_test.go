package plancache

import (
	"bytes"
	"encoding/gob"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/lang"
	"fuseme/internal/rt"
	"fuseme/internal/rt/spec"
)

// dispatchRecorder is the in-process cluster with the descriptor of every
// dispatched stage recorded, with the descriptors of the stages that had
// ended when it started: it takes the descriptor path of rt.RunStage and
// forwards the stage to the embedded cluster. Stages of independent
// operators run at once, so it is safe for concurrent use.
type dispatchRecorder struct {
	*cluster.Cluster
	mu    sync.Mutex
	specs []*spec.Stage
	after map[*spec.Stage][]*spec.Stage // per dispatched stage: the stages ended before it started
	ended []*spec.Stage
}

func (r *dispatchRecorder) RunSpecStage(st *rt.Stage) error {
	r.mu.Lock()
	if r.after == nil {
		r.after = map[*spec.Stage][]*spec.Stage{}
	}
	r.specs = append(r.specs, st.Spec)
	r.after[st.Spec] = slices.Clone(r.ended)
	r.mu.Unlock()
	err := rt.RunStage(r.Cluster, st)
	r.mu.Lock()
	r.ended = append(r.ended, st.Spec)
	r.mu.Unlock()
	return err
}

func sharedConfig() cluster.Config {
	return cluster.Config{
		Nodes: 2, TasksPerNode: 4, TaskMemBytes: 1 << 30,
		NetBandwidth: 1e9, CompBandwidth: 50e9, BlockSize: 16,
	}
}

const gnmfScript = `
U2 = U * (t(V) %*% X) / (t(V) %*% V %*% U)
V2 = V * (X %*% t(U)) / (V %*% (U %*% t(U)))
`

// gnmfQuery returns the canonical form of the GNMF update written with the
// given input names (for X, U and V), inputs bound under them, and its
// compile.
func gnmfQuery(t *testing.T, x, u, v string) (Canon, map[string]*block.Matrix, func() (*core.PhysPlan, error)) {
	t.Helper()
	const bs = 16
	inputs := map[string]*block.Matrix{
		x: block.RandomSparse(96, 80, bs, 0.05, 1, 5, 1),
		u: block.RandomDense(8, 80, bs, 0.5, 1.5, 2),
		v: block.RandomDense(96, 8, bs, 0.5, 1.5, 3),
	}
	g := parse(t, strings.NewReplacer("X", x, "U", u, "V", v).Replace(gnmfScript), map[string]lang.InputDecl{
		x: {Rows: 96, Cols: 80, Sparsity: inputs[x].Density()},
		u: {Rows: 8, Cols: 80, Sparsity: 1},
		v: {Rows: 96, Cols: 8, Sparsity: 1},
	})
	compile := func() (*core.PhysPlan, error) { return core.FuseME{}.Compile(g, sharedConfig()) }
	return Canonicalize(g), inputs, compile
}

// specBytes is a deep snapshot of every stage descriptor of pp.
func specBytes(t *testing.T, pp *core.PhysPlan) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, op := range pp.Ops {
		for _, st := range op.Lowered.Stages {
			if err := enc.Encode(st.Spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

// TestSharedPlanConcurrentExecutions runs one cached plan from eight
// goroutines, each on its own cluster (run it under -race): every run is bit
// for bit the serial run, and the plan's stages are what they were before.
func TestSharedPlanConcurrentExecutions(t *testing.T) {
	c := New(0)
	canon, inputs, compile := gnmfQuery(t, "X", "U", "V")
	h, _, err := c.Get(canon.Key, canon, compile)
	if err != nil {
		t.Fatal(err)
	}
	pp := h.PP
	before := specBytes(t, pp)
	want, err := core.Execute(pp, cluster.MustNew(sharedConfig()), inputs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	outs := make([]map[string]*block.Matrix, 8)
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = core.Execute(pp, cluster.MustNew(sharedConfig()), inputs)
		}()
	}
	wg.Wait()
	for i, out := range outs {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		for name, w := range want {
			g := out[name]
			for r := 0; r < w.Rows; r++ {
				for col := 0; col < w.Cols; col++ {
					if math.Float64bits(g.At(r, col)) != math.Float64bits(w.At(r, col)) {
						t.Fatalf("run %d: %s differs from the serial run at (%d,%d)", i, name, r, col)
					}
				}
			}
		}
	}
	if !bytes.Equal(specBytes(t, pp), before) {
		t.Error("executing the shared plan changed its stage descriptors")
	}
}

// TestHitDispatchesCachedStages: a plan-cache hit runs the stages the miss
// lowered — the very descriptors, each once, each after the stages it
// depends on ended — and builds none of its own.
func TestHitDispatchesCachedStages(t *testing.T) {
	c := New(0)
	canon, _, compile := gnmfQuery(t, "X", "U", "V")
	cold, hit, err := c.Get(canon.Key, canon, compile)
	if err != nil || hit {
		t.Fatalf("cold Get: hit=%t err=%v", hit, err)
	}
	canon2, inputs, compile2 := gnmfQuery(t, "R", "W", "H")
	h, hit, err := c.Get(canon2.Key, canon2, func() (*core.PhysPlan, error) {
		t.Error("a hit compiled")
		return compile2()
	})
	if err != nil || !hit || h.PP != cold.PP {
		t.Fatalf("warm Get: hit=%t same plan=%t err=%v", hit, h.PP == cold.PP, err)
	}
	var lowered []*spec.Stage
	deps := map[*spec.Stage][]*spec.Stage{} // per lowered stage: the stages it depends on
	opStages := make([][]*spec.Stage, len(h.PP.Ops))
	for i, op := range h.PP.Ops {
		var before []*spec.Stage
		for _, j := range h.PP.Producers(i) {
			before = append(before, opStages[j]...)
		}
		for _, st := range op.Lowered.Stages {
			deps[&st.Spec] = slices.Clone(before)
			before = append(before, &st.Spec)
			opStages[i] = append(opStages[i], &st.Spec)
			lowered = append(lowered, &st.Spec)
		}
	}
	needed := map[string]*block.Matrix{}
	for planName, callerName := range h.InputNames {
		needed[planName] = inputs[callerName]
	}
	rec := &dispatchRecorder{Cluster: cluster.MustNew(sharedConfig())}
	if _, err := core.Execute(h.PP, rec, needed); err != nil {
		t.Fatal(err)
	}
	if len(rec.specs) != len(lowered) {
		t.Fatalf("dispatched %d stages, the cached plan holds %d", len(rec.specs), len(lowered))
	}
	for i, sp := range rec.specs {
		if !slices.Contains(lowered, sp) || slices.Index(rec.specs, sp) != i {
			t.Errorf("stage %d (%s) is not a cached descriptor, or ran twice", i, sp.Name)
			continue
		}
		for _, dep := range deps[sp] {
			if !slices.Contains(rec.after[sp], dep) {
				t.Errorf("stage %s started before %s, which it depends on, ended", sp.Name, dep.Name)
			}
		}
	}
}
