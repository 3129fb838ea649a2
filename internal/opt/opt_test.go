package opt

import (
	"math"
	"testing"
	"testing/quick"

	"fuseme/internal/cluster"
	"fuseme/internal/cost"
	"fuseme/internal/dag"
	"fuseme/internal/fusion"
	"fuseme/internal/matrix"
)

// nmfEstimates builds the NMF kernel plan at the given scale and returns its
// cost coefficients.
func nmfEstimates(t testing.TB, n, k int, density float64) cost.Estimates {
	t.Helper()
	g := dag.NewGraph()
	x := g.Input("X", n, n, density)
	u := g.Input("U", n, k, 1)
	v := g.Input("V", n, k, 1)
	mm := g.MatMul(u, g.Transpose(v))
	mul := g.Binary(matrix.Mul, x, g.Unary("log", g.Binary(matrix.Add, mm, g.Scalar(1e-3))))
	g.SetOutput("O", mul)
	members := map[int]*dag.Node{}
	for _, nd := range g.Nodes() {
		if !nd.IsLeaf() {
			members[nd.ID] = nd
		}
	}
	p, err := fusion.NewPlan(mul, members)
	if err != nil {
		t.Fatal(err)
	}
	return cost.Analyze(p, 1000)
}

// paperModel is the paper's cluster: 8 nodes x 12 slots, 125 MB/s,
// 546 Gflop/s and 10 GB per task.
func paperModel() cluster.Config { return cluster.Default() }

func TestOptimizeFindsFeasibleOptimum(t *testing.T) {
	e := nmfEstimates(t, 100_000, 2000, 0.001)
	m := paperModel()
	res := Optimize(m, e)
	if !res.Feasible {
		t.Fatal("no feasible parameters found")
	}
	if res.P < 1 || res.P > e.I || res.Q < 1 || res.Q > e.J || res.R < 1 || res.R > e.K {
		t.Fatalf("out of range: %+v", res)
	}
	if int64(res.P)*int64(res.Q)*int64(res.R) < int64(m.TotalSlots()) {
		t.Fatalf("parallelism floor violated: %+v", res)
	}
	if res.MemPerTask > m.TaskMemBytes {
		t.Fatalf("memory budget violated: %+v", res)
	}
	if math.IsInf(res.Cost, 1) || res.Cost <= 0 {
		t.Fatalf("cost = %v", res.Cost)
	}
}

func TestOptimizeMatchesExhaustive(t *testing.T) {
	cases := []struct {
		n, k    int
		density float64
		mem     int64
	}{
		{100_000, 2000, 0.001, 10 << 30},
		{100_000, 2000, 0.001, 1 << 30},
		{50_000, 5000, 0.2, 10 << 30},
		{10_000, 2000, 0.5, 4 << 30},
		{5_000, 1000, 1.0, 10 << 30},
	}
	for _, c := range cases {
		e := nmfEstimates(t, c.n, c.k, c.density)
		m := paperModel()
		m.TaskMemBytes = c.mem
		pruned := Optimize(m, e)
		full := OptimizeExhaustive(m, e)
		if pruned.Feasible != full.Feasible {
			t.Fatalf("%+v: feasibility disagrees", c)
		}
		if !pruned.Feasible {
			continue
		}
		if pruned.P != full.P || pruned.Q != full.Q || pruned.R != full.R {
			t.Errorf("%+v: pruned (%d,%d,%d) cost %v vs exhaustive (%d,%d,%d) cost %v",
				c, pruned.P, pruned.Q, pruned.R, pruned.Cost, full.P, full.Q, full.R, full.Cost)
		}
		if pruned.Evaluated >= full.Evaluated {
			t.Errorf("%+v: pruning evaluated %d >= exhaustive %d", c, pruned.Evaluated, full.Evaluated)
		}
	}
}

func TestInfeasibleReturnsMaxPartitioning(t *testing.T) {
	e := nmfEstimates(t, 100_000, 2000, 0.001)
	m := paperModel()
	m.TaskMemBytes = 1 // nothing fits
	res := Optimize(m, e)
	if res.Feasible {
		t.Fatal("reported feasible under 1-byte budget")
	}
	if res.P != e.I || res.Q != e.J || res.R != e.K {
		t.Fatalf("infeasible fallback (%d,%d,%d), want (I,J,K)", res.P, res.Q, res.R)
	}
	if !math.IsInf(res.Cost, 1) {
		t.Fatalf("infeasible cost = %v, want +Inf", res.Cost)
	}
	full := OptimizeExhaustive(m, e)
	if full.Feasible {
		t.Fatal("exhaustive disagrees on feasibility")
	}
}

func TestSmallSearchSpaceMaximisesParallelism(t *testing.T) {
	// I*J*K < N*Tc: the paper sets parameters as large as possible.
	e := nmfEstimates(t, 3000, 2000, 0.5) // I=3, J=3, K=2 -> 18 < 96
	m := paperModel()
	res := Optimize(m, e)
	if !res.Feasible {
		t.Fatal("infeasible")
	}
	if res.P != e.I || res.Q != e.J || res.R != e.K {
		t.Fatalf("got (%d,%d,%d), want (%d,%d,%d)", res.P, res.Q, res.R, e.I, e.J, e.K)
	}
}

func TestTighterMemoryForcesLargerPartitions(t *testing.T) {
	e := nmfEstimates(t, 100_000, 2000, 0.001)
	m := paperModel()
	loose := Optimize(m, e)
	m.TaskMemBytes = loose.MemPerTask / 2
	tight := Optimize(m, e)
	if !tight.Feasible {
		t.Fatal("tight budget infeasible")
	}
	if tight.MemPerTask > m.TaskMemBytes {
		t.Fatal("tight result violates budget")
	}
	if tight.P*tight.Q*tight.R < loose.P*loose.Q*loose.R {
		t.Fatalf("tighter memory should not shrink partitioning: %+v vs %+v", tight, loose)
	}
}

// Property: for random model scales, the pruning search always agrees with
// exhaustive search and never violates its constraints.
func TestQuickPruningCorrectness(t *testing.T) {
	f := func(nRaw, kRaw, memRaw uint16) bool {
		n := 20_000 + int(nRaw%40)*5_000
		k := 1000 + int(kRaw%5)*1000
		e := nmfEstimates(t, n, k, 0.01)
		m := paperModel()
		m.TaskMemBytes = (64 << 20) + int64(memRaw)<<22
		pruned := Optimize(m, e)
		full := OptimizeExhaustive(m, e)
		if pruned.Feasible != full.Feasible {
			return false
		}
		if !pruned.Feasible {
			return true
		}
		return pruned.P == full.P && pruned.Q == full.Q && pruned.R == full.R &&
			pruned.MemPerTask <= m.TaskMemBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkOptimizePruning(b *testing.B) {
	e := nmfEstimates(b, 1_000_000, 5000, 0.01)
	m := paperModel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Optimize(m, e)
	}
}

func BenchmarkOptimizeExhaustive(b *testing.B) {
	e := nmfEstimates(b, 1_000_000, 5000, 0.01)
	m := paperModel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		OptimizeExhaustive(m, e)
	}
}
