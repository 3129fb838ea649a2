package spec_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/iotest"

	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/fusion"
	"fuseme/internal/lang"
	"fuseme/internal/matrix"
	"fuseme/internal/rt/spec"
)

// compilePlans parses script and returns every fused plan the FuseME
// compiler produces for it, so the round-trip tests run over real plans
// rather than hand-built toys.
func compilePlans(t *testing.T, script string) []*fusion.Plan {
	t.Helper()
	decls := map[string]lang.InputDecl{
		"X": {Rows: 96, Cols: 64, Sparsity: 0.2},
		"U": {Rows: 8, Cols: 64, Sparsity: 1},
		"V": {Rows: 96, Cols: 8, Sparsity: 1},
	}
	g, err := lang.Parse(script, decls)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{
		Nodes: 2, TasksPerNode: 4, TaskMemBytes: 1 << 30,
		NetBandwidth: 1e9, CompBandwidth: 50e9, BlockSize: 16,
	}
	pp, err := (core.FuseME{}).Compile(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var plans []*fusion.Plan
	for _, op := range pp.Ops {
		if op.Plan != nil {
			plans = append(plans, op.Plan)
		}
	}
	if len(plans) == 0 {
		t.Fatalf("no fused plans compiled from %q", script)
	}
	return plans
}

var specScripts = []string{
	`O = X * log(V %*% U + 1e-3)`,                // outer-fusion mask
	`U2 = U * (t(V) %*% X) / (t(V) %*% V %*% U)`, // matmul chain
	`l = sum((X - V %*% U)^2)`,                   // aggregation root
	`G = t(X) %*% X * 0.5`,                       // transpose input
}

// TestPlanSpecRoundTrip flattens each compiled plan and rebuilds it,
// requiring the reconstruction to agree on everything the executor reads:
// member IDs, root, main matmul, external inputs, node shapes, and the
// outer-mask decision (which exercises the restored consumer links).
func TestPlanSpecRoundTrip(t *testing.T) {
	for _, script := range specScripts {
		for _, p := range compilePlans(t, script) {
			ps := spec.FromPlan(p)
			got, err := ps.Build()
			if err != nil {
				t.Fatalf("%s: Build: %v", script, err)
			}
			if !reflect.DeepEqual(got.MemberIDs(), p.MemberIDs()) {
				t.Errorf("%s: members %v, want %v", script, got.MemberIDs(), p.MemberIDs())
			}
			if got.Root.ID != p.Root.ID {
				t.Errorf("%s: root %d, want %d", script, got.Root.ID, p.Root.ID)
			}
			switch {
			case (got.MainMM == nil) != (p.MainMM == nil):
				t.Errorf("%s: MainMM presence mismatch", script)
			case got.MainMM != nil && got.MainMM.ID != p.MainMM.ID:
				t.Errorf("%s: MainMM %d, want %d", script, got.MainMM.ID, p.MainMM.ID)
			}
			wantExt, gotExt := p.ExternalInputs(), got.ExternalInputs()
			if len(wantExt) != len(gotExt) {
				t.Fatalf("%s: %d external inputs, want %d", script, len(gotExt), len(wantExt))
			}
			for i := range wantExt {
				w, g := wantExt[i], gotExt[i]
				if g.ID != w.ID || g.Rows != w.Rows || g.Cols != w.Cols || g.Sparsity != w.Sparsity {
					t.Errorf("%s: external %d: got {%d %dx%d %g}, want {%d %dx%d %g}",
						script, i, g.ID, g.Rows, g.Cols, g.Sparsity, w.ID, w.Rows, w.Cols, w.Sparsity)
				}
			}
			wantMask, gotMask := fusion.FindOuterMask(p), fusion.FindOuterMask(got)
			if (wantMask == nil) != (gotMask == nil) {
				t.Errorf("%s: outer mask presence: got %v, want %v", script, gotMask != nil, wantMask != nil)
			} else if wantMask != nil &&
				(gotMask.Mul.ID != wantMask.Mul.ID || gotMask.Driver.ID != wantMask.Driver.ID || gotMask.Inner.ID != wantMask.Inner.ID) {
				t.Errorf("%s: outer mask nodes (%d,%d,%d), want (%d,%d,%d)", script,
					gotMask.Mul.ID, gotMask.Driver.ID, gotMask.Inner.ID,
					wantMask.Mul.ID, wantMask.Driver.ID, wantMask.Inner.ID)
			}
			if err := got.Validate(); err != nil {
				t.Errorf("%s: rebuilt plan invalid: %v", script, err)
			}
		}
	}
}

// TestStageGobRoundTrip ships a fully populated Stage through gob — the
// coordinator/worker control encoding — and requires exact recovery.
func TestStageGobRoundTrip(t *testing.T) {
	p := compilePlans(t, `O = X * log(V %*% U + 1e-3)`)[0]
	st := spec.Stage{
		Name: "mm:O", Phase: spec.PhasePartial, NumTasks: 8, BlockSize: 16,
		Plan: spec.FromPlan(p), Broadcast: false, NoMask: true, Swapped: true,
		IRanges: []spec.Span{{Lo: 0, Hi: 3}, {Lo: 3, Hi: 6}},
		JRanges: []spec.Span{{Lo: 0, Hi: 4}},
		KRanges: []spec.Span{{Lo: 0, Hi: 1}, {Lo: 1, Hi: 2}},
		GI:      6, GJ: 4, GK: 2,
		Colocated: []int{1, 4},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	var got spec.Stage
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("gob round trip changed the stage:\ngot  %+v\nwant %+v", got, st)
	}
	if _, err := got.Plan.Build(); err != nil {
		t.Fatalf("decoded plan does not build: %v", err)
	}
}

// TestBuildRejectsCorruptSpecs checks the defensive paths: dangling input
// references, duplicate IDs, and a missing root must fail loudly rather
// than build a half-wired plan.
func TestBuildRejectsCorruptSpecs(t *testing.T) {
	base := spec.FromPlan(compilePlans(t, `l = sum((X - V %*% U)^2)`)[0])

	dangling := base
	dangling.Nodes = append([]spec.NodeSpec(nil), base.Nodes...)
	for i := range dangling.Nodes {
		if dangling.Nodes[i].Member && len(dangling.Nodes[i].Inputs) > 0 {
			dangling.Nodes[i].Inputs = append([]int(nil), dangling.Nodes[i].Inputs...)
			dangling.Nodes[i].Inputs[0] = 9999
			break
		}
	}
	if _, err := dangling.Build(); err == nil {
		t.Error("dangling input reference built successfully")
	}

	dup := base
	dup.Nodes = append(append([]spec.NodeSpec(nil), base.Nodes...), base.Nodes[0])
	if _, err := dup.Build(); err == nil {
		t.Error("duplicate node ID built successfully")
	}

	noRoot := base
	noRoot.Root = 9999
	if _, err := noRoot.Build(); err == nil {
		t.Error("missing root built successfully")
	}
}

// FuzzDecodeBlock: DecodeBlock never panics or over-allocates on arbitrary
// bytes (a bad block is matrix.ErrCorruptBlock), and because the decoder
// accepts only the exact length a header implies, whatever it accepts
// re-encodes to the same bytes and is structurally safe to hand a kernel.
// The streamed reader a task stream runs returns the same on the same bytes
// however they arrive, and an error when they stop short.
func FuzzDecodeBlock(f *testing.F) {
	seeds := []matrix.Mat{
		matrix.RandomDense(3, 5, -1, 1, 1),
		matrix.RandomSparse(6, 4, 0.4, -1, 1, 2),
		matrix.NewCSR(4, 4),
		matrix.NewDense(0, 7),
		matrix.NewDenseData(1, 1, []float64{42}),
		&matrix.CSR{Rows: 1, Cols: 1, RowPtr: []int{0, 1}, Col: []int{0}, Val: []float64{-1}},
	}
	f.Add([]byte{})
	for _, m := range seeds {
		enc, err := spec.EncodeBlock(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		for _, cut := range []int{1, 8, 21, len(enc) / 2} {
			if cut < len(enc) {
				f.Add(enc[:len(enc)-cut])
			}
		}
	}
	// A 21-byte header claiming 2^31 x 2^31, and a CSR claiming 2^33 non-zeros.
	f.Add([]byte("1EMF\x00\x00\x00\x00\x80\x00\x00\x00\x00\x00\x00\x00\x80\x00\x00\x00\x00"))
	f.Add([]byte("1EMF\x01\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00"))
	// CSR blocks that pass the header checks and fail the structure checks
	// after the read: a column outside the block, RowPtr decreasing.
	bad := &matrix.CSR{Rows: 2, Cols: 2, RowPtr: []int{0, 1, 2}, Col: []int{0, 2}, Val: []float64{1, 2}}
	f.Add(matrix.AppendTo(nil, bad))
	bad.Col[1], bad.RowPtr[1] = 1, 3
	f.Add(matrix.AppendTo(nil, bad))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := spec.DecodeBlock(data)
		if len(data) > 0 {
			// The streamed reader, fed one byte per read, agrees with
			// DecodeBlock, and takes storage only once the header agrees
			// with the length: never more words than the bytes carry.
			var a matrix.Arena
			sm, serr := matrix.ReadBlock(iotest.OneByteReader(bytes.NewReader(data)), len(data), math.MaxInt, &a)
			if (serr == nil) != (err == nil) || serr == nil && !bytes.Equal(matrix.AppendTo(nil, sm), data) {
				t.Fatalf("streamed read: %v, %v; DecodeBlock: %v", sm, serr, err)
			}
			if 8*a.Words() > len(data) {
				t.Fatalf("%d words of storage for %d bytes", a.Words(), len(data))
			}
			// Claimed a word longer than it is, the block comes up short.
			if _, err := matrix.ReadBlock(bytes.NewReader(data), len(data)+8, math.MaxInt, nil); err == nil {
				t.Fatal("a block read whole from bytes one word short of its claimed length")
			}
		}
		if err != nil {
			if !errors.Is(err, matrix.ErrCorruptBlock) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if m == nil {
			if len(data) != 0 {
				t.Fatalf("%d bytes decoded to the nil block", len(data))
			}
			return
		}
		again, err := spec.EncodeBlock(m)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("re-encode differs (err %v):\n%x\n%x", err, again, data)
		}
		if s, ok := m.(*matrix.CSR); ok {
			for i := 0; i < s.Rows; i++ {
				for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
					if c := s.Col[p]; c < 0 || c >= s.Cols {
						t.Fatalf("row %d holds column %d of %d", i, c, s.Cols)
					}
					_ = s.Val[p]
				}
			}
		}
	})
}
