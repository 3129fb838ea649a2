package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func runOne(t *testing.T, id string) []*Table {
	t.Helper()
	tables, err := Run(id, Options{})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tables) == 0 {
		t.Fatalf("%s: no tables", id)
	}
	return tables
}

func cell(t *testing.T, tab *Table, row int, col string) string {
	t.Helper()
	for i, c := range tab.Columns {
		if c == col {
			return tab.Rows[row][i]
		}
	}
	t.Fatalf("table %s has no column %q", tab.ID, col)
	return ""
}

func num(t *testing.T, tab *Table, row int, col string) float64 {
	t.Helper()
	s := cell(t, tab, row, col)
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("table %s row %d col %s: %q is not numeric", tab.ID, row, col, s)
	}
	return v
}

func byID(t *testing.T, tables []*Table, id string) *Table {
	t.Helper()
	for _, tab := range tables {
		if tab.ID == id {
			return tab
		}
	}
	t.Fatalf("no table %q", id)
	return nil
}

func TestFig12aShape(t *testing.T) {
	tables := runOne(t, "fig12a")
	timeT := byID(t, tables, "fig12a")
	// FuseME beats SystemDS everywhere SystemDS survives; SystemDS O.O.M.s
	// at the largest sizes (the paper's failure markers).
	ooms := 0
	for i := range timeT.Rows {
		fuse := num(t, timeT, i, "FuseME")
		sds := cell(t, timeT, i, "SystemDS")
		if sds == "O.O.M." || sds == "T.O." {
			ooms++
			continue
		}
		if v, _ := strconv.ParseFloat(sds, 64); v <= fuse {
			t.Errorf("row %d: SystemDS %v <= FuseME %v", i, v, fuse)
		}
	}
	if ooms == 0 {
		t.Error("expected SystemDS failures at large n (paper: T.O. at 750K)")
	}
	// FuseME time grows with n.
	if num(t, timeT, 3, "FuseME") <= num(t, timeT, 0, "FuseME") {
		t.Error("FuseME time not increasing with n")
	}
}

func TestFig12bOrdering(t *testing.T) {
	tables := runOne(t, "fig12b")
	timeT := byID(t, tables, "fig12b")
	for i := range timeT.Rows {
		if got := cell(t, timeT, i, "SystemDS-op"); got != "R" {
			t.Errorf("row %d: SystemDS used %s, paper uses RFO at d=0.2", i, got)
		}
		if num(t, timeT, i, "SystemDS") <= num(t, timeT, i, "FuseME") {
			t.Errorf("row %d: SystemDS should lose", i)
		}
	}
}

func TestFig12cVariantBoundary(t *testing.T) {
	tables := runOne(t, "fig12c")
	timeT := byID(t, tables, "fig12c")
	// Paper: BFO at densities 0.05/0.1, RFO at 0.5/1.0.
	want := []string{"B", "B", "R", "R"}
	for i, w := range want {
		if got := cell(t, timeT, i, "SystemDS-op"); got != w {
			t.Errorf("density row %d: variant %s, want %s", i, got, w)
		}
	}
}

func TestFig12dScaling(t *testing.T) {
	tables := runOne(t, "fig12d")
	for _, tab := range tables {
		// More nodes -> faster, for both engines (Figure 12(d)/(h)).
		if num(t, tab, 0, "SystemDS") <= num(t, tab, 2, "SystemDS") {
			t.Errorf("%s: SystemDS does not scale with nodes", tab.ID)
		}
		if num(t, tab, 0, "FuseME") <= num(t, tab, 2, "FuseME") {
			t.Errorf("%s: FuseME does not scale with nodes", tab.ID)
		}
	}
}

func TestFig13OptimumAtPaperPoint(t *testing.T) {
	tables := runOne(t, "fig13")
	tab := byID(t, tables, "fig13")
	// The sweep's minimum must sit at (5,5), as in Figures 13(a)-(c).
	minRow, minCost := -1, 0.0
	for i := range tab.Rows {
		c := num(t, tab, i, "Cost()")
		if minRow < 0 || c < minCost {
			minRow, minCost = i, c
		}
	}
	if got := cell(t, tab, minRow, "(P,R)"); got != "(5,5)" {
		t.Errorf("sweep minimum at %s, want (5,5)", got)
	}
	// The optimizer's note must carry the paper's optimum.
	if len(tab.Notes) == 0 || !strings.Contains(tab.Notes[0], "(P*=5, Q*=4, R*=5)") {
		t.Errorf("optimizer did not choose the paper's (5,4,5): %v", tab.Notes)
	}
}

func TestFig13dPruningWins(t *testing.T) {
	tables := runOne(t, "fig13d")
	tab := byID(t, tables, "fig13d")
	last := len(tab.Rows) - 1
	if num(t, tab, last, "pruning (ms)") >= num(t, tab, last, "exhaustive (ms)") {
		t.Error("pruning not faster than exhaustive at 2M voxels")
	}
	for i := range tab.Rows {
		if got := cell(t, tab, i, "same optimum"); got != "yes" {
			t.Errorf("row %d: pruning found a different optimum", i)
		}
	}
	// Exhaustive latency grows with the voxel count.
	if num(t, tab, last, "exhaustive (ms)") <= num(t, tab, 0, "exhaustive (ms)") {
		t.Error("exhaustive latency not growing")
	}
}

func TestFig14Ordering(t *testing.T) {
	tables, err := Run("fig14", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Per-iteration times: MatFast > SystemDS > FuseME on every dataset
	// where all engines survive (Figure 14's consistent ordering).
	checked := 0
	for _, tab := range tables {
		if !strings.Contains(tab.ID, "-k") || strings.Contains(tab.ID, "comm") {
			continue
		}
		mf, sds, fm := cell(t, tab, 0, "MatFast"), cell(t, tab, 0, "SystemDS"), cell(t, tab, 0, "FuseME")
		if mf == "O.O.M." || sds == "O.O.M." {
			continue
		}
		mfv, _ := strconv.ParseFloat(mf, 64)
		sdsv, _ := strconv.ParseFloat(sds, 64)
		fmv, _ := strconv.ParseFloat(fm, 64)
		if !(mfv > sdsv && sdsv > fmv) {
			t.Errorf("%s: ordering MatFast(%v) > SystemDS(%v) > FuseME(%v) violated", tab.ID, mfv, sdsv, fmv)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no datasets checked")
	}
	// MatFast fails on YahooMusic at k=1000 (Figure 14(g)'s O.O.M.).
	yk1000 := byID(t, tables, "fig14-YahooMusic-k1000")
	if got := cell(t, yk1000, 0, "MatFast"); got != "O.O.M." {
		t.Errorf("MatFast on YahooMusic k=1000: %s, want O.O.M.", got)
	}
}

func TestFig15Ordering(t *testing.T) {
	tables := runOne(t, "fig15")
	for _, tab := range tables {
		for i := range tab.Rows {
			f := num(t, tab, i, "FuseME")
			s := num(t, tab, i, "SystemDS")
			if f >= s {
				t.Errorf("%s row %d: FuseME %v >= SystemDS %v", tab.ID, i, f, s)
			}
		}
	}
	// Figure 15(d)'s crossover: TensorFlow beats SystemDS at small
	// parameters but loses once gradient synchronisation dominates.
	tabD := byID(t, tables, "fig15d")
	first := len(tabD.Rows) - len(tabD.Rows) // 0
	last := len(tabD.Rows) - 1
	if num(t, tabD, first, "TensorFlow") >= num(t, tabD, first, "SystemDS") {
		t.Error("fig15d: TensorFlow should win at (500,2)")
	}
	if num(t, tabD, last, "TensorFlow") <= num(t, tabD, last, "SystemDS") {
		t.Error("fig15d: TensorFlow should lose at (5000,20), as in the paper")
	}
}

func TestTable3AllFeasible(t *testing.T) {
	tables := runOne(t, "table3")
	tab := byID(t, tables, "table3")
	if len(tab.Rows) != 12 {
		t.Fatalf("%d rows, want 12", len(tab.Rows))
	}
	for i := range tab.Rows {
		params := cell(t, tab, i, "(P*,Q*,R*)")
		if !strings.HasPrefix(params, "(") || strings.Contains(params, "0") && strings.HasPrefix(params, "(0") {
			t.Errorf("row %d: bad params %s", i, params)
		}
		if num(t, tab, i, "mem/task (GB)") > 10 {
			t.Errorf("row %d exceeds the 10GB budget", i)
		}
	}
	// Density family: denser X pushes R* to 1 (paper's trend).
	last := cell(t, tab, 11, "(P*,Q*,R*)")
	if !strings.HasSuffix(last, ",1)") {
		t.Errorf("dense (d=1.0) row chose %s, want R*=1", last)
	}
}

func TestTable1Instantiation(t *testing.T) {
	tables := runOne(t, "table1")
	inst := byID(t, tables, "table1-inst")
	if len(inst.Rows) != 3 {
		t.Fatalf("%d rows", len(inst.Rows))
	}
	bfoMem := num(t, inst, 0, "mem/task (GB)")
	rfoMem := num(t, inst, 1, "mem/task (GB)")
	cfoMem := num(t, inst, 2, "mem/task (GB)")
	if !(bfoMem > cfoMem && cfoMem > rfoMem) {
		t.Errorf("Figure 9 memory ordering violated: BFO %v, CFO %v, RFO %v", bfoMem, cfoMem, rfoMem)
	}
	rfoNet := num(t, inst, 1, "net (GB)")
	cfoNet := num(t, inst, 2, "net (GB)")
	if rfoNet <= cfoNet {
		t.Errorf("RFO net %v should exceed CFO net %v", rfoNet, cfoNet)
	}
}

func TestPlansShowFusionDifference(t *testing.T) {
	tables := runOne(t, "plans")
	tab := byID(t, tables, "plans")
	count := map[string]int{}
	for _, row := range tab.Rows {
		count[row[0]]++
	}
	if count["FuseME"] >= count["DistME"] {
		t.Errorf("FuseME should need fewer operators than DistME: %v", count)
	}
	if count["SystemDS"] <= count["FuseME"] {
		t.Errorf("SystemDS should fuse less than FuseME: %v", count)
	}
}

func TestAblation(t *testing.T) {
	tables := runOne(t, "ablation")
	tab := byID(t, tables, "ablation")
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	full := num(t, tab, 0, "flops")
	nomask := num(t, tab, 1, "flops")
	if nomask < full*10 {
		t.Errorf("masking ablation too weak: %v vs %v", nomask, full)
	}
	fullMax := num(t, tab, 0, "max task flops")
	balMax := num(t, tab, 2, "max task flops")
	if balMax >= fullMax {
		t.Errorf("balancing did not reduce the heaviest task: %v >= %v", balMax, fullMax)
	}
}

// TestRunAllAndErrors pins the registry to the paper's tables and figures:
// the retired measurement ids (cache, chaos, kernels, pipeline, replan,
// serve) must be rejected like any unknown id, and none may quietly return —
// measured numbers live in bench/ (BENCHMARK.json), not here.
func TestRunAllAndErrors(t *testing.T) {
	for _, id := range []string{"nope", "cache", "chaos", "kernels", "pipeline", "replan", "serve"} {
		if _, err := Run(id, Options{}); err == nil {
			t.Errorf("experiment id %q accepted", id)
		}
	}
	want := "ablation fig12a fig12b fig12c fig12d fig13 fig13d fig14 fig15 plans table1 table3"
	if got := strings.Join(IDs(), " "); got != want {
		t.Fatalf("registered ids = %q, want %q", got, want)
	}
}

func TestScaledOptions(t *testing.T) {
	// A scaled-down run must still produce every table without failures
	// becoming errors.
	tables, err := Run("fig12a", Options{Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("%d tables", len(tables))
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "x", Title: "t", Columns: []string{"a", "bb"}}
	tab.AddRow("v", 3.14159)
	tab.Notes = append(tab.Notes, "hello")
	out := tab.Render()
	for _, want := range []string{"=== x: t ===", "bb", "3.14", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
