package exec

import (
	"reflect"
	"testing"
	"testing/quick"

	"fuseme/internal/block"
	"fuseme/internal/dag"
	"fuseme/internal/matrix"
	"fuseme/internal/ref"
	"fuseme/internal/rt/spec"
)

func TestWeightedRangesInvariants(t *testing.T) {
	f := func(seed int64, partsRaw uint8) bool {
		rng := seed
		n := int(uint(seed)%20) + 1
		parts := int(partsRaw)%8 + 1
		w := make([]int64, n)
		for i := range w {
			rng = rng*6364136223846793005 + 1442695040888963407
			w[i] = (rng >> 33) % 100
			if w[i] < 0 {
				w[i] = -w[i]
			}
		}
		spans := weightedRanges(w, parts)
		wantParts := parts
		if wantParts > n {
			wantParts = n
		}
		if len(spans) != wantParts {
			return false
		}
		// Contiguous, non-empty, covering 0..n.
		pos := 0
		for _, s := range spans {
			if s.Lo != pos || s.Hi <= s.Lo {
				return false
			}
			pos = s.Hi
		}
		return pos == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedRangesBalancesSkew(t *testing.T) {
	// All the weight in the first index cluster: balanced split should give
	// the heavy head its own narrow range.
	w := []int64{1000, 10, 10, 10, 10, 10, 10, 10}
	spans := weightedRanges(w, 4)
	if spans[0].Len() != 1 {
		t.Fatalf("heavy head not isolated: %+v", spans)
	}
	// Uniform weights degrade to near-equal widths.
	u := []int64{5, 5, 5, 5, 5, 5, 5, 5}
	spans = weightedRanges(u, 4)
	for _, s := range spans {
		if s.Len() != 2 {
			t.Fatalf("uniform weights not evenly split: %+v", spans)
		}
	}
}

// skewedNMF builds the NMF kernel over a skewed sparse driver.
func skewedNMF(t testing.TB, bs int) (*dag.Graph, Bindings, map[string]matrix.Mat) {
	t.Helper()
	const rows, cols, k = 60, 50, 8
	x := block.RandomSparseSkewed(rows, cols, bs, 0.08, 1.5, 1, 5, 3)
	g := dag.NewGraph()
	xn := g.Input("X", rows, cols, x.Density())
	u := g.Input("U", rows, k, 1)
	v := g.Input("V", cols, k, 1)
	mm := g.MatMul(u, g.Transpose(v))
	out := g.Binary(matrix.Mul, xn, g.Unary("log", g.Binary(matrix.Add, mm, g.Scalar(2))))
	g.SetOutput("O", out)
	uf := matrix.RandomDense(rows, k, 0.5, 1.5, 4)
	vf := matrix.RandomDense(cols, k, 0.5, 1.5, 5)
	bind := Bindings{xn.ID: x, u.ID: block.FromMat(uf, bs), v.ID: block.FromMat(vf, bs)}
	flats := map[string]matrix.Mat{"X": x.ToMat(), "U": uf, "V": vf}
	return g, bind, flats
}

func TestBalancedExecutionCorrect(t *testing.T) {
	const bs = 5
	g, bind, flats := skewedNMF(t, bs)
	plan := fullPlan(t, g)
	want, err := ref.Evaluate(g, flats)
	if err != nil {
		t.Fatal(err)
	}
	for _, balance := range []bool{false, true} {
		for _, c := range []struct{ p, q, r int }{{3, 2, 1}, {4, 3, 2}} {
			cl := testCluster(bs)
			op := &FusedOp{Plan: plan, P: c.p, Q: c.q, R: c.r, Balance: balance}
			got, err := op.Execute(cl, bind)
			if err != nil {
				t.Fatalf("balance=%v: %v", balance, err)
			}
			if !matrix.EqualApprox(got.ToMat(), want["O"], 1e-9) {
				t.Fatalf("balance=%v (%d,%d,%d): mismatch", balance, c.p, c.q, c.r)
			}
		}
	}
}

func TestBalancedExecutionReducesImbalance(t *testing.T) {
	const bs = 5
	g, bind, _ := skewedNMF(t, bs)
	plan := fullPlan(t, g)
	run := func(balance bool) int64 {
		cl := testCluster(bs)
		op := &FusedOp{Plan: plan, P: 6, Q: 1, R: 1, Balance: balance}
		if _, err := op.Execute(cl, bind); err != nil {
			t.Fatal(err)
		}
		return cl.Stats().MaxTaskFlops
	}
	plain := run(false)
	balanced := run(true)
	if balanced >= plain {
		t.Fatalf("balancing did not reduce the heaviest task: %d >= %d", balanced, plain)
	}
}

func TestNoMaskAblation(t *testing.T) {
	const bs = 5
	g, bind, flats := skewedNMF(t, bs)
	plan := fullPlan(t, g)
	want, err := ref.Evaluate(g, flats)
	if err != nil {
		t.Fatal(err)
	}
	clMasked := testCluster(bs)
	got, err := (&FusedOp{Plan: plan, P: 2, Q: 2, R: 1}).Execute(clMasked, bind)
	if err != nil {
		t.Fatal(err)
	}
	clDense := testCluster(bs)
	gotDense, err := (&FusedOp{Plan: plan, P: 2, Q: 2, R: 1, NoMask: true}).Execute(clDense, bind)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApprox(got.ToMat(), want["O"], 1e-9) || !matrix.EqualApprox(gotDense.ToMat(), want["O"], 1e-9) {
		t.Fatal("masked/unmasked results diverge from reference")
	}
	if clDense.Stats().Flops <= clMasked.Stats().Flops {
		t.Fatalf("NoMask should cost more flops: %d <= %d",
			clDense.Stats().Flops, clMasked.Stats().Flops)
	}
}

// TestBalancedRangesFollowEachBinding: a balanced operator is lowered once,
// with equal ranges, and every execution re-derives its i/j ranges from the
// driver it binds, on a copy: two bindings skewed toward opposite ends get
// opposite boundaries, both compute the reference, and the lowered stage
// keeps its own.
func TestBalancedRangesFollowEachBinding(t *testing.T) {
	const bs = 5
	g, bind, flats := skewedNMF(t, bs)
	plan := fullPlan(t, g)
	cl := testCluster(bs)
	lo, err := (&FusedOp{Plan: plan, P: 4, Q: 3, R: 1, Balance: true}).Lower(cl.Config())
	if err != nil {
		t.Fatal(err)
	}
	lowered := lo.Stages[0].Spec
	equal := equalRanges(lowered.GI, 4)

	// The same driver with its rows reversed: heavy at the bottom.
	x := flats["X"]
	rows, cols := x.Dims()
	flipped := matrix.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			flipped.Set(rows-1-i, j, x.At(i, j))
		}
	}
	flippedFlats := map[string]matrix.Mat{"X": matrix.ToCSR(flipped), "U": flats["U"], "V": flats["V"]}
	flippedBind := bindInputs(t, g, bs, flippedFlats)

	var first []spec.Span
	for _, c := range []struct {
		bind  Bindings
		flats map[string]matrix.Mat
	}{{bind, flats}, {flippedBind, flippedFlats}} {
		ranges := lo.bound(cl, c.bind, nil)[0].Spec.IRanges
		if reflect.DeepEqual(ranges, equal) || reflect.DeepEqual(ranges, first) {
			t.Errorf("ranges %v: not derived from this binding's driver (equal %v, previous binding %v)", ranges, equal, first)
		}
		first = ranges
		got, err := lo.Run(cl, c.bind, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Evaluate(g, c.flats)
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.EqualApprox(got[0].ToMat(), want["O"], 1e-9) {
			t.Fatalf("balanced run over ranges %v differs from the reference", ranges)
		}
	}
	if !reflect.DeepEqual(lo.Stages[0].Spec, lowered) || !reflect.DeepEqual(lowered.IRanges, equal) {
		t.Errorf("lowered stage changed: %+v", lo.Stages[0].Spec)
	}
}
