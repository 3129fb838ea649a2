package remote

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestDocDriftFrames holds the frame table in the package comment to the
// frame constants: every msg* constant is in the table, every frame the table
// names is declared, and the numbers of withdrawn frames are listed as
// retired and not used again.
func TestDocDriftFrames(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var doc string
	declared := map[string]int{} // frame constant → type byte
	for _, f := range pkgs["remote"].Files {
		if f.Doc != nil {
			doc += f.Doc.Text()
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "msg") {
						continue
					}
					call, ok := vs.Values[i].(*ast.CallExpr) // byte(n)
					if !ok || len(call.Args) != 1 {
						t.Fatalf("frame constant %s is not byte(n)", name.Name)
					}
					n, err := strconv.Atoi(call.Args[0].(*ast.BasicLit).Value)
					if err != nil {
						t.Fatal(err)
					}
					declared[name.Name] = n
				}
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("no frame constants found")
	}

	// The table is the comment's indented block.
	var table []string
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "\t") {
			table = append(table, line)
		}
	}
	text := strings.Join(table, "\n")
	named := map[string]bool{}
	for _, m := range regexp.MustCompile(`\bmsg[A-Z]\w*`).FindAllString(text, -1) {
		named[m] = true
	}
	for name := range declared {
		if !named[name] {
			t.Errorf("frame %s is missing from the package comment's frame table", name)
		}
	}
	for name := range named {
		if _, ok := declared[name]; !ok {
			t.Errorf("the frame table names %s, which is not declared", name)
		}
	}

	i := strings.Index(text, "retired")
	if i < 0 {
		t.Fatal("the frame table lists no retired frame numbers")
	}
	retired := regexp.MustCompile(`\b\d+(–\d+)?\b`).FindAllString(text[i:], -1)
	for _, want := range []string{"10", "11", "15", "16–18"} {
		if !slices.Contains(retired, want) {
			t.Errorf("frame number %s is not listed as retired (found %v)", want, retired)
		}
	}
	for name, n := range declared {
		if slices.Contains([]int{10, 11, 15, 16, 17, 18}, n) {
			t.Errorf("frame %s reuses retired number %d", name, n)
		}
	}
}

// TestDocDriftProtocolVersion: a document states the protocol in force as
// "protocol vN", "proto vN" or "(vN)", and every such statement in README,
// DESIGN and docs/*.md names protoVersion. Earlier versions are history and
// are written "version N".
func TestDocDriftProtocolVersion(t *testing.T) {
	docs, err := filepath.Glob("../../../docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "../../../README.md", "../../../DESIGN.md")
	stated := regexp.MustCompile(`(?i)\bproto(?:col)? v(\d+)\b|\(v(\d+)\)`)
	want, n := strconv.Itoa(protoVersion), 0
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range stated.FindAllSubmatch(text, -1) {
			n++
			if got := string(m[1]) + string(m[2]); got != want {
				t.Errorf("%s states %q; the protocol is v%s", filepath.Base(doc), m[0], want)
			}
		}
	}
	if n == 0 {
		t.Fatal("no document states the protocol version")
	}
}
