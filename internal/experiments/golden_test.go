package experiments

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/tables.golden from this run")

// wallClockColumns are the columns that time this machine rather than the
// model: the golden blanks them.
var wallClockColumns = map[string]bool{"wall (ms)": true, "exhaustive (ms)": true, "pruning (ms)": true}

// TestGoldenTables pins every table of every experiment, at the scale the
// tests run, to testdata/tables.golden: the chosen (P,Q,R), the simulated
// times and the transferred data are the Eq. 2 model's outputs, so a change
// to how the model prices a term shows here.
func TestGoldenTables(t *testing.T) {
	tables, err := Run("all", Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tab := range tables {
		for i, col := range tab.Columns {
			if wallClockColumns[col] {
				for _, row := range tab.Rows {
					row[i] = "-"
				}
			}
		}
		b.WriteString(tab.Render())
	}
	const path = "testdata/tables.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("experiment tables differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
