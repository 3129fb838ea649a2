package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"fuseme/internal/experiments"
)

// maskWall blanks the one timing field the commands print.
func maskWall(s string) string {
	return regexp.MustCompile(`wall=[0-9.]+s`).ReplaceAllString(s, "wall=*")
}

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestQueryOutput: the query mode prints what fuseme printed before gen and
// repl became its subcommands (testdata/query.golden), timing aside — a run
// with -v, a -plan, a -sim under another engine and an -explain.
func TestQueryOutput(t *testing.T) {
	in := []string{"-in", "X:60x40:0.1", "-in", "U:60x5", "-in", "V:40x5"}
	const q = "O = X * log(U %*% t(V) + 1e-3)"
	var out bytes.Buffer
	for _, args := range [][]string{
		append(in, "-v", "-e", q+"\ns = sum(O)"),
		append(in, "-plan", "-e", q),
		{"-sim", "-engine", "systemds", "-in", "X:100000x2000:0.01", "-in", "U:100000x200", "-in", "V:2000x200", "-e", q},
		append(in, "-explain", "-e", q),
	} {
		if err := run(args, &out); err != nil {
			t.Fatalf("fuseme %s: %v", strings.Join(args, " "), err)
		}
	}
	if got, want := maskWall(out.String()), golden(t, "query.golden"); got != want {
		t.Errorf("query mode printed\n%s\nwant\n%s", got, want)
	}
}

// TestSimPricesThePaperCluster: -sim dry-runs on the paper's cluster as the
// figures do, wave overhead included, so fig12a's 100K NMF-kernel query
// prints the FuseME seconds of fig12a's 100K row.
func TestSimPricesThePaperCluster(t *testing.T) {
	tables, err := experiments.Run("fig12a", experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := ""
	for _, tab := range tables {
		if tab.ID != "fig12a" {
			continue
		}
		col := slices.Index(tab.Columns, "FuseME")
		for _, row := range tab.Rows {
			if row[0] == "100K" && col >= 0 {
				want = row[col]
			}
		}
	}
	if want == "" {
		t.Fatal("fig12a has no 100K FuseME cell")
	}
	var out bytes.Buffer
	args := []string{"-sim", "-in", "X:100000x100000:0.001", "-in", "U:100000x2000", "-in", "V:100000x2000",
		"-e", "O = X * log(U %*% t(V) + 1e-3)"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`simTime=([0-9.]+)s`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no simTime in %q", out.String())
	}
	sec, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	decimals := 0
	if i := strings.IndexByte(want, '.'); i >= 0 {
		decimals = len(want) - i - 1
	}
	if got := strconv.FormatFloat(sec, 'f', decimals, 64); got != want {
		t.Errorf("fuseme -sim prints %ss, fig12a's FuseME at 100K reads %ss", got, want)
	}
}

// TestGenDigests: fuseme gen writes the bytes fuseme-gen wrote (SHA-256 of
// its output) for a synthetic sparse .fme, a synthetic dense triplet file
// and a scaled real-dataset stand-in.
func TestGenDigests(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-rows", "300", "-cols", "200", "-density", "0.05", "-block", "64", "-seed", "7"},
			"099872109fbd54a8f93af4ae3110725921ad909fa7791ec08747277e145a9da6"},
		{[]string{"-rows", "40", "-cols", "30", "-format", "triplets", "-block", "16", "-seed", "3"},
			"e9dbeb9e5af058609bf6dc33038a54be73758324dae65c73300ad3048c8ddb50"},
		{[]string{"-dataset", "movielens", "-scale", "0.01"},
			"307d916247ff70cbaffeada06f219571c220f73c88f7361932429c87e9e4a26f"},
	} {
		path := filepath.Join(t.TempDir(), "out")
		if err := runGen(append(c.args, "-o", path), io.Discard, io.Discard); err != nil {
			t.Fatalf("fuseme gen %s: %v", strings.Join(c.args, " "), err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != c.want {
			t.Errorf("fuseme gen %s: sha256 %x, want %s", strings.Join(c.args, " "), sum, c.want)
		}
	}
}

// TestGenRejectsBadFlags: a bad flag is an error that names it, returned
// before anything is generated or written — an existing -o file keeps its
// bytes.
func TestGenRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-block", []string{"-rows", "3", "-cols", "3", "-block", "0"}},
		{"-scale", []string{"-dataset", "netflix", "-scale", "2"}},
		{"-scale", []string{"-dataset", "netflix", "-scale", "0"}},
		{"-scale", []string{"-dataset", "netflix", "-scale", "NaN"}},
		{"-format", []string{"-rows", "3", "-cols", "3", "-format", "csv"}},
		{"-dataset", []string{"-dataset", "imdb"}},
		{"-density", []string{"-rows", "3", "-cols", "3", "-density", "1.5"}},
		{"-rows", []string{"-rows", "0", "-cols", "3"}},
	} {
		path := filepath.Join(t.TempDir(), "out")
		const before = "kept\n"
		if err := os.WriteFile(path, []byte(before), 0o644); err != nil {
			t.Fatal(err)
		}
		err := runGen(append(c.args, "-o", path), io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("fuseme gen %s: err = %v, want one naming %s", strings.Join(c.args, " "), err, c.flag)
		}
		if b, _ := os.ReadFile(path); string(b) != before {
			t.Errorf("fuseme gen %s: -o file holds %q, want %q", strings.Join(c.args, " "), b, before)
		}
	}
}

// replScript drives every command the shell's transcript pins; DIR stands
// for a scratch directory.
const replScript = `\gen X 60x40 0.1
\gen U 60x5
\gen V 40x5
O = X * log(U %*% t(V) + 1e-3)
\plan O = X * log(U %*% t(V) + 1e-3)
\stats
\engine systemds
s = sum(O)
\ls
\show O 3
\save O DIR/o.fme
\load P DIR/o.fme
\show P 2
\gen Y 4x0
\bogus
\help
\quit
`

// TestReplTranscript: a scripted fuseme repl session prints what
// fuseme-repl printed (testdata/repl.golden), timing aside.
func TestReplTranscript(t *testing.T) {
	script := strings.ReplaceAll(replScript, "DIR", t.TempDir())
	var out bytes.Buffer
	if err := runRepl(strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	if got, want := maskWall(out.String()), golden(t, "repl.golden"); got != want {
		t.Errorf("repl printed\n%s\nwant\n%s", got, want)
	}
}
