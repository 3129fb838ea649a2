package plancache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"fuseme/internal/core"
	"fuseme/internal/dag"
	"fuseme/internal/lang"
)

func parse(t *testing.T, src string, decls map[string]lang.InputDecl) *dag.Graph {
	t.Helper()
	g, err := lang.Parse(src, decls)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return g
}

// TestCanonRenameInsensitive checks that renaming every variable leaves the
// key unchanged and aligns the renamed inputs position-by-position.
func TestCanonRenameInsensitive(t *testing.T) {
	a := Canonicalize(parse(t, "O = X * log(U %*% t(V) + 1e-3)", map[string]lang.InputDecl{
		"X": {Rows: 80, Cols: 70, Sparsity: 0.05},
		"U": {Rows: 80, Cols: 10, Sparsity: 1},
		"V": {Rows: 70, Cols: 10, Sparsity: 1},
	}))
	b := Canonicalize(parse(t, "Res = M * log(P %*% t(Q) + 1e-3)", map[string]lang.InputDecl{
		"M": {Rows: 80, Cols: 70, Sparsity: 0.05},
		"P": {Rows: 80, Cols: 10, Sparsity: 1},
		"Q": {Rows: 70, Cols: 10, Sparsity: 1},
	}))
	if a.Key != b.Key {
		t.Fatalf("keys differ under pure renaming:\n%s\nvs\n%s", a.Key, b.Key)
	}
	want := map[string]string{"X": "M", "U": "P", "V": "Q"}
	if len(a.Inputs) != 3 || len(b.Inputs) != 3 {
		t.Fatalf("inputs = %v / %v, want 3 each", a.Inputs, b.Inputs)
	}
	for i := range a.Inputs {
		if want[a.Inputs[i]] != b.Inputs[i] {
			t.Fatalf("input alignment %v vs %v: position %d maps %q to %q",
				a.Inputs, b.Inputs, i, a.Inputs[i], b.Inputs[i])
		}
	}
	if a.Outputs[0] != "O" || b.Outputs[0] != "Res" {
		t.Fatalf("outputs = %v / %v", a.Outputs, b.Outputs)
	}
}

// TestCanonOutputOrderInsensitive checks that declaring outputs in a
// different order (and renaming them) still yields the same key with
// correctly aligned outputs.
func TestCanonOutputOrderInsensitive(t *testing.T) {
	decls := map[string]lang.InputDecl{
		"X": {Rows: 48, Cols: 40, Sparsity: 0.1},
		"U": {Rows: 4, Cols: 40, Sparsity: 1},
		"V": {Rows: 48, Cols: 4, Sparsity: 1},
	}
	a := Canonicalize(parse(t, `
U2 = U * (t(V) %*% X) / (t(V) %*% V %*% U)
V2 = V * (X %*% t(U)) / (V %*% (U %*% t(U)))
`, decls))
	renamed := map[string]lang.InputDecl{
		"R": {Rows: 48, Cols: 40, Sparsity: 0.1},
		"F": {Rows: 4, Cols: 40, Sparsity: 1},
		"G": {Rows: 48, Cols: 4, Sparsity: 1},
	}
	b := Canonicalize(parse(t, `
Gnext = G * (R %*% t(F)) / (G %*% (F %*% t(F)))
Fnext = F * (t(G) %*% R) / (t(G) %*% G %*% F)
`, renamed))
	if a.Key != b.Key {
		t.Fatalf("keys differ under output reordering + renaming:\n%s\nvs\n%s", a.Key, b.Key)
	}
	// U2 (the U-update) must align with Fnext (the F-update) wherever the
	// canonical order put them.
	align := map[string]string{"U2": "Fnext", "V2": "Gnext"}
	for i := range a.Outputs {
		if align[a.Outputs[i]] != b.Outputs[i] {
			t.Fatalf("output alignment %v vs %v", a.Outputs, b.Outputs)
		}
	}
}

// TestCanonSensitive checks the key changes when anything plan-relevant
// changes: dims, sparsity, operators, scalar literals.
func TestCanonSensitive(t *testing.T) {
	base := func() (string, map[string]lang.InputDecl) {
		return "O = X * log(U %*% t(V) + 1e-3)", map[string]lang.InputDecl{
			"X": {Rows: 80, Cols: 70, Sparsity: 0.05},
			"U": {Rows: 80, Cols: 10, Sparsity: 1},
			"V": {Rows: 70, Cols: 10, Sparsity: 1},
		}
	}
	src, decls := base()
	ref := Canonicalize(parse(t, src, decls))

	variants := []struct {
		name  string
		src   string
		mutat func(map[string]lang.InputDecl)
	}{
		{"rows", src, func(d map[string]lang.InputDecl) {
			d["X"] = lang.InputDecl{Rows: 160, Cols: 70, Sparsity: 0.05}
			d["U"] = lang.InputDecl{Rows: 160, Cols: 10, Sparsity: 1}
		}},
		{"rank", src, func(d map[string]lang.InputDecl) {
			d["U"] = lang.InputDecl{Rows: 80, Cols: 20, Sparsity: 1}
			d["V"] = lang.InputDecl{Rows: 70, Cols: 20, Sparsity: 1}
		}},
		{"sparsity", src, func(d map[string]lang.InputDecl) {
			d["X"] = lang.InputDecl{Rows: 80, Cols: 70, Sparsity: 0.5}
		}},
		{"operator", "O = X + log(U %*% t(V) + 1e-3)", nil},
		{"literal", "O = X * log(U %*% t(V) + 1e-2)", nil},
		{"function", "O = X * exp(U %*% t(V) + 1e-3)", nil},
	}
	for _, v := range variants {
		_, d := base()
		if v.mutat != nil {
			v.mutat(d)
		}
		got := Canonicalize(parse(t, v.src, d))
		if got.Key == ref.Key {
			t.Errorf("%s change did not change the key", v.name)
		}
	}
}

// TestCanonSharedInputSwap exercises outputs that are structural twins over
// shared inputs: the alignment must still map each output to the right
// computation.
func TestCanonSharedInputSwap(t *testing.T) {
	decls := map[string]lang.InputDecl{
		"X": {Rows: 8, Cols: 8, Sparsity: 1},
		"Y": {Rows: 8, Cols: 8, Sparsity: 1},
	}
	a := Canonicalize(parse(t, "P = X - Y\nQ = Y - X", decls))
	b := Canonicalize(parse(t, "Q2 = Y - X\nP2 = X - Y", decls))
	if a.Key != b.Key {
		t.Fatalf("keys differ:\n%s\nvs\n%s", a.Key, b.Key)
	}
	// Whatever canonical order was chosen, position i must name outputs
	// computing the same expression over the same positional inputs.
	align := map[string]string{"P": "P2", "Q": "Q2"}
	for i := range a.Outputs {
		if align[a.Outputs[i]] != b.Outputs[i] {
			t.Fatalf("output alignment %v vs %v", a.Outputs, b.Outputs)
		}
	}
}

// TestCacheLRUAndCounters checks hit/miss counting, rename maps on hit, and
// LRU eviction.
func TestCacheLRUAndCounters(t *testing.T) {
	c := New(2)
	mk := func(rows int) (string, Canon) {
		canon := Canonicalize(parse(t, "O = A + B", map[string]lang.InputDecl{
			"A": {Rows: rows, Cols: 4, Sparsity: 1},
			"B": {Rows: rows, Cols: 4, Sparsity: 1},
		}))
		return canon.Key, canon
	}
	k1, c1 := mk(4)
	if _, ok := c.Lookup(k1, c1); ok {
		t.Fatal("empty cache hit")
	}
	c.Insert(k1, c1, &core.PhysPlan{})

	// Same structure, renamed inputs: must hit and align names.
	canon2 := Canonicalize(parse(t, "Z = P + Q", map[string]lang.InputDecl{
		"P": {Rows: 4, Cols: 4, Sparsity: 1},
		"Q": {Rows: 4, Cols: 4, Sparsity: 1},
	}))
	hit, ok := c.Lookup(canon2.Key, canon2)
	if !ok {
		t.Fatal("renamed repeat missed")
	}
	if hit.OutputNames["O"] != "Z" {
		t.Fatalf("output rename map = %v", hit.OutputNames)
	}
	for plan, caller := range hit.InputNames {
		if (plan == "A") != (caller == "P") || (plan == "B") != (caller == "Q") {
			t.Fatalf("input rename map = %v", hit.InputNames)
		}
	}

	// Two more inserts evict the least recently used.
	k2, cn2 := mk(8)
	k3, cn3 := mk(16)
	c.Insert(k2, cn2, &core.PhysPlan{})
	c.Insert(k3, cn3, &core.PhysPlan{})
	if _, ok := c.Lookup(k1, c1); ok {
		t.Fatal("LRU entry survived eviction")
	}
	hits, misses, entries := c.Stats()
	if entries != 2 {
		t.Fatalf("entries = %d, want 2", entries)
	}
	if hits != 1 || misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 1/2", hits, misses)
	}
}

// TestCanonDeterministic re-canonicalizes the same graph repeatedly (maps
// iterate in random order in Go) and requires identical results.
func TestCanonDeterministic(t *testing.T) {
	decls := map[string]lang.InputDecl{
		"X": {Rows: 48, Cols: 40, Sparsity: 0.1},
		"U": {Rows: 4, Cols: 40, Sparsity: 1},
		"V": {Rows: 48, Cols: 4, Sparsity: 1},
	}
	src := `
U2 = U * (t(V) %*% X) / (t(V) %*% V %*% U)
V2 = V * (X %*% t(U)) / (V %*% (U %*% t(U)))
`
	ref := Canonicalize(parse(t, src, decls))
	for i := 0; i < 10; i++ {
		got := Canonicalize(parse(t, src, decls))
		if got.Key != ref.Key || fmt.Sprint(got.Inputs) != fmt.Sprint(ref.Inputs) ||
			fmt.Sprint(got.Outputs) != fmt.Sprint(ref.Outputs) {
			t.Fatalf("canonicalization not deterministic: %+v vs %+v", got, ref)
		}
	}
}

// TestGetCompilesAColdKeyOnce starts 8 callers on one cold key. The first
// compiles; its compile is held until Stats shows the other seven waiting on
// it, so all seven take the in-flight path rather than finding the entry
// afterwards. One compile, seven hits with rename maps onto each caller's own
// names, one entry. A failed compile reaches its waiters as the error, is not
// cached, and the next Get compiles again.
func TestGetCompilesAColdKeyOnce(t *testing.T) {
	const callers = 8
	canonOf := func(i int) Canon {
		a, b, o := fmt.Sprintf("A%d", i), fmt.Sprintf("B%d", i), fmt.Sprintf("O%d", i)
		return Canonicalize(parse(t, o+" = "+a+" + "+b, map[string]lang.InputDecl{
			a: {Rows: 4, Cols: 4, Sparsity: 1},
			b: {Rows: 4, Cols: 4, Sparsity: 1},
		}))
	}
	for _, fail := range []bool{false, true} {
		c := New(4)
		var compiles atomic.Int64
		compile := func() (*core.PhysPlan, error) {
			compiles.Add(1)
			for hits, _, _ := c.Stats(); hits < callers-1; hits, _, _ = c.Stats() {
				runtime.Gosched() // until every other caller has joined this compile
			}
			if fail {
				return nil, errors.New("no plan")
			}
			return &core.PhysPlan{}, nil
		}
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				canon := canonOf(i)
				h, hit, err := c.Get(canon.Key, canon, compile)
				switch {
				case fail:
					if err == nil || err.Error() != "no plan" {
						t.Errorf("caller %d: err = %v, want the compile's error", i, err)
					}
				case err != nil || h.PP == nil:
					t.Errorf("caller %d: plan %v, err %v", i, h.PP, err)
				case hit: // the compiling caller's one output name, onto this caller's
					for _, caller := range h.OutputNames {
						if caller == fmt.Sprintf("O%d", i) && len(h.OutputNames) == 1 {
							return
						}
					}
					t.Errorf("caller %d: output rename map = %v", i, h.OutputNames)
				}
			}()
		}
		wg.Wait()
		hits, misses, entries := c.Stats()
		if compiles.Load() != 1 || hits != callers-1 || misses != 1 {
			t.Errorf("fail=%v: %d compiles, %d hits, %d misses; want 1, %d, 1", fail, compiles.Load(), hits, misses, callers-1)
		}
		if want := map[bool]int{false: 1, true: 0}[fail]; entries != want {
			t.Errorf("fail=%v: %d entries, want %d", fail, entries, want)
		}
		if fail { // nothing was cached: the key is cold again
			canon := canonOf(0)
			if _, hit, err := c.Get(canon.Key, canon, func() (*core.PhysPlan, error) { return &core.PhysPlan{}, nil }); hit || err != nil {
				t.Errorf("after a failed compile: hit=%v err=%v, want a fresh compile", hit, err)
			}
		}
	}
}
