package fuseme_test

// Doc-drift gate: the code snippets shown in README.md and docs/LANGUAGE.md
// are extracted and compiled (Go) or executed (DSL) so the documentation
// cannot silently rot as the API evolves. When one of these tests fails,
// either the snippet in the document or — for new snippets with new free
// variables — the shape table in TestDocDriftDSLSnippets needs updating.

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"fuseme"
	"fuseme/internal/cluster"
	"fuseme/internal/obs"
)

// fenced is one fenced code block pulled out of a markdown file.
type fenced struct {
	tag  string // info string after the opening fence ("go", "sh", "")
	text string
	line int // 1-based line of the opening fence, for error messages
}

// extractFenced returns every fenced code block in path.
func extractFenced(t *testing.T, path string) []fenced {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []fenced
	var cur *fenced
	for i, line := range strings.Split(string(b), "\n") {
		trimmed := strings.TrimSpace(line)
		if !strings.HasPrefix(trimmed, "```") {
			if cur != nil {
				cur.text += line + "\n"
			}
			continue
		}
		if cur == nil {
			cur = &fenced{tag: strings.TrimPrefix(trimmed, "```"), line: i + 1}
		} else {
			blocks = append(blocks, *cur)
			cur = nil
		}
	}
	if cur != nil {
		t.Fatalf("%s: unclosed code fence opened at line %d", path, cur.line)
	}
	return blocks
}

// goModLine returns the repository go.mod's `go X.Y` directive so the
// generated snippet modules always match the module's language version.
func goModLine(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^go .+$`).FindString(string(b))
	if m == "" {
		t.Fatal("go.mod: no go directive found")
	}
	return m
}

// buildSnippet compiles src as a main package in a throwaway module that
// replaces the fuseme import with this repository.
func buildSnippet(t *testing.T, where string, src string) {
	t.Helper()
	root, err := os.Getwd() // root-package test: the repo root
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	gomod := fmt.Sprintf("module docdrift\n\n%s\n\nrequire fuseme v0.0.0\n\nreplace fuseme => %s\n", goModLine(t), root)
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "build", "./...")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Errorf("%s: snippet no longer compiles (update the doc or the API):\n%s\n--- snippet module ---\n%s", where, out, src)
	}
}

// declaredNames parses a Go statement fragment and returns the variable
// names it declares, so wrapper code can blank-assign them (Go rejects
// unused variables, and doc fragments routinely declare-and-drop).
func declaredNames(t *testing.T, frag string) []string {
	t.Helper()
	wrapped := "package p\nfunc f() {\n" + frag + "\n}\n"
	f, err := parser.ParseFile(token.NewFileSet(), "frag.go", wrapped, parser.SkipObjectResolution)
	if err != nil {
		return nil // let the real compiler report it with a better message
	}
	seen := map[string]bool{}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" && !seen[id.Name] {
				seen[id.Name] = true
				names = append(names, id.Name)
			}
		}
		return true
	})
	return names
}

// TestDocDriftGoSnippets compiles every ```go block in README.md and
// docs/OPERATIONS.md. Blocks that begin with a package clause build as-is;
// statement fragments are wrapped in a function that predeclares the
// conventional free variable `cfg` (a ClusterConfig) and blank-assigns
// whatever the fragment declares.
func TestDocDriftGoSnippets(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	total := 0
	for _, doc := range []string{"README.md", "docs/OPERATIONS.md"} {
		n := 0
		for _, blk := range extractFenced(t, doc) {
			if blk.tag != "go" {
				continue
			}
			n++
			where := fmt.Sprintf("%s:%d", doc, blk.line)
			if strings.HasPrefix(strings.TrimSpace(blk.text), "package ") {
				buildSnippet(t, where, blk.text)
				continue
			}
			var blanks strings.Builder
			for _, name := range declaredNames(t, blk.text) {
				fmt.Fprintf(&blanks, "\t_ = %s\n", name)
			}
			src := "package main\n\nimport \"fuseme\"\n\nvar _ fuseme.Option\n\n" +
				"func snippet(cfg fuseme.ClusterConfig) {\n" + blk.text + blanks.String() + "}\n\nfunc main() {}\n"
			buildSnippet(t, where, src)
		}
		if doc == "README.md" && n == 0 {
			t.Fatalf("%s: no ```go blocks found — extraction broken or docs gutted", doc)
		}
		total += n
	}
	if total < 4 {
		t.Fatalf("only %d ```go blocks across the docs — extraction broken or docs gutted", total)
	}
}

// dslShapes declares an input for every free variable the documentation's
// DSL snippets may reference. Shapes are mutually consistent for the GNMF
// updates (X: r x c, U: k x c, V: r x k). Extend this table when a doc
// snippet introduces a new input name.
func dslShapes(sess *fuseme.Session) {
	const r, c, k = 24, 20, 4
	sess.RandomSparse("X", r, c, 0.3, 1, 5, 1)
	sess.RandomDense("U", k, c, 0.5, 1.5, 2)
	sess.RandomDense("V", r, k, 0.5, 1.5, 3)
}

// TestDocDriftDSLSnippets executes every untagged fenced block of
// docs/LANGUAGE.md as a query against small bound inputs: the language
// reference's examples must always parse, plan and run.
func TestDocDriftDSLSnippets(t *testing.T) {
	const doc = "docs/LANGUAGE.md"
	n := 0
	for _, blk := range extractFenced(t, doc) {
		if blk.tag != "" || !strings.Contains(blk.text, "=") {
			continue
		}
		n++
		where := fmt.Sprintf("%s:%d", doc, blk.line)
		sess, err := fuseme.NewSession(fuseme.LocalClusterConfig())
		if err != nil {
			t.Fatal(err)
		}
		dslShapes(sess)
		out, err := sess.Query(blk.text)
		if err != nil {
			t.Errorf("%s: DSL snippet no longer runs (update the doc, the language, or dslShapes):\n%v\n--- snippet ---\n%s", where, err, blk.text)
			sess.Close()
			continue
		}
		if len(out) == 0 {
			t.Errorf("%s: DSL snippet produced no outputs", where)
		}
		for name, m := range out {
			r, c := m.Dims()
			if r <= 0 || c <= 0 {
				t.Errorf("%s: output %q has degenerate shape %dx%d", where, name, r, c)
			}
		}
		sess.Close()
	}
	if n == 0 {
		t.Fatalf("%s: no DSL blocks found — extraction broken or docs gutted", doc)
	}
}

// TestDocDriftOptions holds docs/OPERATIONS.md to the root package's option
// set in both directions: every exported With* function is named there, and
// every With* it names exists.
func TestDocDriftOptions(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, f := range pkgs["fuseme"].Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "With") {
				declared[fn.Name.Name] = true
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no With* functions in the root package — parsing broken")
	}
	if len(declared) != 7 {
		t.Errorf("the root package declares %d With* options, want 7: a new option needs a benchmark arm or a reason in ROADMAP", len(declared))
	}
	doc, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, name := range regexp.MustCompile(`\bWith[A-Z][A-Za-z]*`).FindAllString(string(doc), -1) {
		named[name] = true
		if !declared[name] {
			t.Errorf("docs/OPERATIONS.md names %s, which the root package does not declare", name)
		}
	}
	for name := range declared {
		if !named[name] {
			t.Errorf("option %s is not named in docs/OPERATIONS.md", name)
		}
	}
}

// nonTestGoFiles lists the non-test Go sources of the root module: bench/ (a
// module of its own) and dot-directories are skipped.
func nonTestGoFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDocDriftVariablesAndCommands holds docs/OPERATIONS.md to the source in
// both directions for environment variables — every "FUSEME_*" string literal
// in non-test Go source outside bench/ is a row of the variable table, and
// every row is read somewhere — and checks that every command under cmd/ is
// named there. A worker has no setting of its own: cmd/fuseme-worker reads
// no environment variable at all.
func TestDocDriftVariablesAndCommands(t *testing.T) {
	literal := regexp.MustCompile(`"(FUSEME_[A-Z_]+)"`)
	envRead := regexp.MustCompile(`\bos\.(Getenv|LookupEnv|Environ)\(`)
	read := map[string]bool{}
	for _, path := range nonTestGoFiles(t) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range literal.FindAllSubmatch(src, -1) {
			read[string(m[1])] = true
		}
		if filepath.Dir(path) == filepath.Join("cmd", "fuseme-worker") {
			if m := literal.Find(src); m != nil {
				t.Errorf("%s names %s: fuseme-worker reads no FUSEME_* variable", path, m)
			}
			if m := envRead.Find(src); m != nil {
				t.Errorf("%s calls %s: fuseme-worker reads no environment variable", path, m)
			}
		}
	}
	doc, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `(FUSEME_[A-Z_]+)` \\|").FindAllSubmatch(doc, -1) {
		rows[string(m[1])] = true
	}
	if len(read) == 0 || len(rows) == 0 {
		t.Fatalf("found %d variables in source and %d table rows — extraction broken", len(read), len(rows))
	}
	if len(read) != 4 {
		t.Errorf("the source reads %d FUSEME_* variables, want 4: a new variable needs a reason in ROADMAP", len(read))
	}
	for name := range read {
		if !rows[name] {
			t.Errorf("%s is read by the source but has no row in docs/OPERATIONS.md's variable table", name)
		}
	}
	for name := range rows {
		if !read[name] {
			t.Errorf("docs/OPERATIONS.md lists %s, which no non-test source reads", name)
		}
	}

	cmds, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cmds {
		if c.IsDir() && !strings.Contains(string(doc), "`"+c.Name()+"`") {
			t.Errorf("command cmd/%s is not named in docs/OPERATIONS.md", c.Name())
		}
	}
}

// TestDocDriftMetrics holds docs/OPERATIONS.md's metric table to the metric
// families internal/obs declares, in both directions: every "fuseme_*" string
// constant there (a family, or a series of one: the name before its "{") has a
// row, and every name in a row's first cell is a declared family — a
// wildcard such as `fuseme_worker_*` names none.
func TestDocDriftMetrics(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), "internal/obs", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	familyOf := func(name string) string { return strings.SplitN(name, "{", 2)[0] }
	declared := map[string]bool{}
	for _, f := range pkgs["obs"].Files {
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.CONST {
				for _, spec := range gd.Specs {
					for _, v := range spec.(*ast.ValueSpec).Values {
						lit, ok := v.(*ast.BasicLit)
						if !ok || lit.Kind != token.STRING {
							continue
						}
						if name, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(name, "fuseme_") {
							declared[familyOf(name)] = true
						}
					}
				}
			}
		}
	}
	doc, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(string(doc), "\n## Metric names\n")
	table, _, _ = strings.Cut(table, "\n## ")
	rows := map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cell, _, _ := strings.Cut(line[1:], " | ")
		for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(cell, -1) {
			name := familyOf(m[1])
			rows[name] = true
			if !declared[name] {
				t.Errorf("docs/OPERATIONS.md's metric table names %q, which internal/obs does not declare", m[1])
			}
		}
	}
	if len(declared) == 0 || len(rows) == 0 {
		t.Fatalf("found %d declared families and %d documented names — extraction broken", len(declared), len(rows))
	}
	for name := range declared {
		if !rows[name] {
			t.Errorf("metric family %s has no row in docs/OPERATIONS.md's metric table", name)
		}
	}
}

// TestDocDriftClusterConfig holds docs/OPERATIONS.md to ClusterConfig in both
// directions: every exported field has a row in the field table, and every
// field the document names — a table row or a ClusterConfig.Field mention —
// is declared.
func TestDocDriftClusterConfig(t *testing.T) {
	declared := map[string]bool{}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(fuseme.ClusterConfig{})) {
		if f.IsExported() {
			declared[f.Name] = true
		}
	}
	doc, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([A-Z][A-Za-z]*)` \\|").FindAllSubmatch(doc, -1) {
		rows[string(m[1])] = true
	}
	if len(rows) == 0 {
		t.Fatal("docs/OPERATIONS.md has no ClusterConfig field table — extraction broken")
	}
	for name := range declared {
		if !rows[name] {
			t.Errorf("ClusterConfig.%s has no row in docs/OPERATIONS.md's field table", name)
		}
	}
	for _, m := range regexp.MustCompile(`ClusterConfig\.([A-Za-z]+)`).FindAllSubmatch(doc, -1) {
		rows[string(m[1])] = true
	}
	for name := range rows {
		if !declared[name] {
			t.Errorf("docs/OPERATIONS.md names ClusterConfig.%s, which is not declared", name)
		}
	}
}

// TestDocDriftFlightFields holds docs/OPERATIONS.md to the JSON of a stage's
// flight record and of cluster.Stats, the measurement /debug/stats serves
// under "stats": every flight.<path> the document names, and every key of a
// JSON example's "flight" or "stats" object, must be one the type marshals.
func TestDocDriftFlightFields(t *testing.T) {
	marshalled := jsonPaths(map[string]bool{}, "flight.", fullJSON(t, &obs.FlightRecord{}))
	jsonPaths(marshalled, "stats.", fullJSON(t, &cluster.Stats{}))
	doc, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	named := regexp.MustCompile(`\bflight(\.[a-z_]+)+`).FindAll(doc, -1)
	for _, path := range named {
		if !marshalled[string(path)] {
			t.Errorf("docs/OPERATIONS.md names %s, which a flight record's JSON does not carry", path)
		}
	}
	examples := 0
	for _, b := range extractFenced(t, "docs/OPERATIONS.md") {
		if b.tag != "json" {
			continue
		}
		var ex map[string]any
		if err := json.Unmarshal([]byte(b.text), &ex); err != nil {
			t.Errorf("docs/OPERATIONS.md:%d: the JSON example does not parse: %v", b.line, err)
			continue
		}
		for _, key := range []string{"flight", "stats"} {
			obj, ok := ex[key].(map[string]any)
			if !ok {
				continue
			}
			examples++
			for path := range jsonPaths(map[string]bool{}, key+".", obj) {
				if !marshalled[path] {
					t.Errorf("docs/OPERATIONS.md:%d: the example carries %s, which its type does not marshal", b.line, path)
				}
			}
		}
	}
	if len(named) == 0 || examples < 2 {
		t.Fatalf("found %d flight paths and %d flight or stats examples — extraction broken", len(named), examples)
	}
}

// fullJSON marshals the struct v points to with every field set non-zero, so
// that no omitempty key is left out, and decodes it as a JSON object.
func fullJSON(t *testing.T, v any) map[string]any {
	t.Helper()
	var fill func(reflect.Value)
	fill = func(f reflect.Value) {
		switch f.Kind() {
		case reflect.Struct:
			for i := 0; i < f.NumField(); i++ {
				fill(f.Field(i))
			}
		case reflect.String:
			f.SetString("x")
		case reflect.Int, reflect.Int64:
			f.SetInt(1)
		case reflect.Float64:
			f.SetFloat(1)
		}
	}
	fill(reflect.ValueOf(v).Elem())
	data, err := json.Marshal(v)
	var obj map[string]any
	if err == nil {
		err = json.Unmarshal(data, &obj)
	}
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// jsonPaths adds to set the dotted path of every key of obj, at any depth,
// after prefix, and returns set.
func jsonPaths(set map[string]bool, prefix string, obj map[string]any) map[string]bool {
	for key, v := range obj {
		set[prefix+key] = true
		if sub, ok := v.(map[string]any); ok {
			jsonPaths(set, prefix+key+".", sub)
		}
	}
	return set
}

// TestDocDriftFlags checks that every flag a command declares is named, as
// `-name`, in its command's section of docs/OPERATIONS.md, the one under a
// "### `cmd`" heading. A flag is declared by a flag.X call in a non-test file
// of cmd/*/, whose section is the directory's, or by a method of a FlagSet
// made in that file, whose section is the name the FlagSet was made with
// ("fuseme gen").
func TestDocDriftFlags(t *testing.T) {
	doc, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(doc), "\n")
	section := func(cmd string) string {
		for i, l := range lines {
			if !strings.HasPrefix(l, "### `"+cmd+"`") {
				continue
			}
			end := i + 1
			for end < len(lines) && !strings.HasPrefix(lines[end], "#") {
				end++
			}
			return strings.Join(lines[i:end], "\n")
		}
		return ""
	}
	// declares lists the methods that declare a flag; the name is their first
	// argument, or their second for the XxxVar forms and Var.
	declares := map[string]bool{}
	for _, typ := range []string{"Bool", "Duration", "Float64", "Int", "Int64", "String", "Uint", "Uint64"} {
		declares[typ], declares[typ+"Var"] = true, true
	}
	for _, m := range []string{"Var", "TextVar", "Func", "BoolFunc"} {
		declares[m] = true
	}
	stringArg := func(call *ast.CallExpr, i int) (string, bool) {
		if len(call.Args) <= i {
			return "", false
		}
		lit, ok := call.Args[i].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(lit.Value)
		return s, err == nil
	}
	paths, err := filepath.Glob("cmd/*/*.go")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no cmd/*/*.go (err %v)", err)
	}
	perSection := map[string]int{}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Base(filepath.Dir(path))
		sets := map[string]string{} // FlagSet variable → the name it was made with
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt: // fs := flag.NewFlagSet("fuseme gen", …)
				if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
					return true
				}
				id, _ := n.Lhs[0].(*ast.Ident)
				made, _ := n.Rhs[0].(*ast.CallExpr)
				if id == nil || made == nil {
					return true
				}
				if sel, ok := made.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "NewFlagSet" {
					name, ok := stringArg(made, 0)
					if !ok {
						t.Errorf("%s: a FlagSet's name is not a string literal, so its flags have no section", path)
					}
					sets[id.Name] = name
					perSection[name] += 0 // a set none of whose flags is seen fails below
				}
			case *ast.CallExpr: // flag.Int("block", …), fs.Int("block", …)
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || !declares[sel.Sel.Name] {
					return true
				}
				recv, _ := sel.X.(*ast.Ident)
				if recv == nil {
					return true
				}
				cmd, isSet := sets[recv.Name]
				if !isSet && recv.Name != "flag" {
					return true
				}
				if !isSet {
					cmd = dir
				}
				arg := 0
				if strings.HasSuffix(sel.Sel.Name, "Var") {
					arg = 1
				}
				name, ok := stringArg(n, arg)
				if !ok {
					return true
				}
				perSection[cmd]++
				if !regexp.MustCompile("`-" + regexp.QuoteMeta(name) + "[`\\s=]").MatchString(section(cmd)) {
					t.Errorf("%s declares -%s, which the `%s` section of docs/OPERATIONS.md does not name", path, name, cmd)
				}
			}
			return true
		})
	}
	total := 0
	for cmd, n := range perSection {
		if n == 0 {
			t.Errorf("found no flag of the FlagSet %q — parsing broken", cmd)
		}
		total += n
	}
	t.Logf("checked %d flags: %v", total, perSection)
	if total == 0 {
		t.Fatal("found no flag declarations under cmd/ — parsing broken")
	}
	if total != 60 {
		t.Errorf("the commands declare %d flags, want 60: a new flag needs a reason in ROADMAP", total)
	}
}

// declName names a function declaration as Recv.Name for a method, Name
// otherwise.
func declName(fn *ast.FuncDecl) string {
	if fn.Recv != nil {
		recv := fn.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if id, ok := recv.(*ast.Ident); ok {
			return id.Name + "." + fn.Name.Name
		}
	}
	return fn.Name.Name
}

// TestOneStageConstructor holds the executor to one stage representation,
// built once. Non-test Go outside bench/:
//   - builds an rt.Stage in exactly one place, internal/exec/paths.go
//     (dispatch), and asks a runtime for no more than rt.Runtime with a type
//     assertion to an rt interface outside package rt;
//   - builds a spec.Stage and flattens a plan with spec.FromPlan only in the
//     lowering file, internal/exec/lower.go (and in package spec itself);
//   - in internal/exec, asks a plan for its space tree, node spaces, outer
//     mask or multiplications only in newPlanCtx, which only lowering and
//     NewSpecStage call: once per stage, never per execution or per task;
//   - has one task path: outside package rt, passes no function literal to a
//     RunStage method (a task body of its own), and calls the descriptor's
//     task entry, RunTask, only in the TCP worker and in rt's in-process arm.
func TestOneStageConstructor(t *testing.T) {
	const rtPath, rtDir = `"fuseme/internal/rt"`, "internal/rt"
	const specPath, specDir = `"fuseme/internal/rt/spec"`, "internal/rt/spec"
	const lowerFile = "internal/exec/lower.go"
	taskEntryCallers := map[string]bool{"internal/rt/rt.go": true, "internal/rt/remote/worker.go": true}
	derivations := map[string]bool{"Spaces": true, "NodeSpaces": true, "FindOuterMask": true, "MatMuls": true}
	planCtxCallers := map[string]bool{"FusedOp.Lower": true, "MultiAggOp.Lower": true, "NewSpecStage": true}
	var literals []string
	for _, path := range nonTestGoFiles(t) {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		dir, slash := filepath.ToSlash(filepath.Dir(path)), filepath.ToSlash(path)
		inRT, inSpec, inExec := dir == rtDir, dir == specDir, dir == "internal/exec"
		// local returns the name this file knows the package at import path by.
		local := func(importPath string) string {
			for _, imp := range f.Imports {
				if imp.Path.Value == importPath {
					if imp.Name != nil {
						return imp.Name.Name
					}
					return filepath.Base(strings.Trim(importPath, `"`))
				}
			}
			return ""
		}
		rtName, specName := local(rtPath), local(specPath)
		// from reports whether e names <pkg>.<name> ("" = any), where pkg is
		// imported as as, or is the file's own package when in is set.
		from := func(e ast.Expr, in bool, as, name string) bool {
			if id, ok := e.(*ast.Ident); ok && in {
				return id.Name == name
			}
			sel, ok := e.(*ast.SelectorExpr)
			if !ok || as == "" {
				return false
			}
			pkg, ok := sel.X.(*ast.Ident)
			return ok && pkg.Name == as && (name == "" || sel.Sel.Name == name)
		}
		fromRT := func(e ast.Expr, name string) bool { return from(e, inRT, rtName, name) }
		inLowering := slash == lowerFile || inSpec
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if fromRT(n.Type, "Stage") {
					literals = append(literals, fset.Position(n.Pos()).String())
				}
				if from(n.Type, inSpec, specName, "Stage") && !inLowering {
					t.Errorf("%s: spec.Stage literal outside %s", fset.Position(n.Pos()), lowerFile)
				}
			case *ast.CallExpr:
				if from(n.Fun, inSpec, specName, "FromPlan") && !inLowering {
					t.Errorf("%s: spec.FromPlan outside %s", fset.Position(n.Pos()), lowerFile)
				}
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					switch {
					case sel.Sel.Name == "RunStage" && !inRT:
						for _, arg := range n.Args {
							if _, lit := arg.(*ast.FuncLit); lit {
								t.Errorf("%s: a function literal passed to RunStage outside package rt", fset.Position(arg.Pos()))
							}
						}
					case sel.Sel.Name == "RunTask" && !taskEntryCallers[slash]:
						t.Errorf("%s: RunTask called outside the TCP worker and rt's in-process arm", fset.Position(n.Pos()))
					}
				}
			case *ast.TypeAssertExpr:
				if !inRT && n.Type != nil && fromRT(n.Type, "") {
					t.Errorf("%s: type assertion to an rt type outside package rt", fset.Position(n.Pos()))
				}
			case *ast.TypeSwitchStmt:
				for _, c := range n.Body.List {
					for _, e := range c.(*ast.CaseClause).List {
						if !inRT && fromRT(e, "") {
							t.Errorf("%s: type switch on an rt type outside package rt", fset.Position(e.Pos()))
						}
					}
				}
			}
			return true
		})
		if !inExec {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := declName(fn)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var callee string
				switch fun := call.Fun.(type) {
				case *ast.SelectorExpr:
					callee = fun.Sel.Name
				case *ast.Ident:
					callee = fun.Name
				}
				if derivations[callee] && name != "newPlanCtx" {
					t.Errorf("%s: %s calls %s; only newPlanCtx derives from a plan", fset.Position(call.Pos()), name, callee)
				}
				if callee == "newPlanCtx" && !planCtxCallers[name] {
					t.Errorf("%s: %s calls newPlanCtx; only lowering and NewSpecStage may", fset.Position(call.Pos()), name)
				}
				return true
			})
		}
	}
	if len(literals) != 1 || !strings.HasPrefix(literals[0], "internal/exec/paths.go:") {
		t.Errorf("rt.Stage literals at %v, want exactly one, in internal/exec/paths.go", literals)
	}
}

// TestEq2PricedOnce holds the cost model to one pricing function. Non-test Go
// outside bench/ divides by a bandwidth — NetBandwidth or CompBandwidth —
// only in cluster.Config.Eq2, and multiplies
// TaskOverhead only in cluster.Config.WaveOverhead and in fig15's per-step
// TensorFlow model, tfEpoch.
func TestEq2PricedOnce(t *testing.T) {
	bandwidths := map[string]bool{"NetBandwidth": true, "CompBandwidth": true}
	allowed := map[string]map[string]bool{
		"divides":    {"internal/cluster/cluster.go:Config.Eq2": true},
		"multiplies": {"internal/cluster/cluster.go:Config.WaveOverhead": true, "internal/experiments/fig15.go:tfEpoch": true},
	}
	// names reports whether e mentions a selector named in want.
	names := func(e ast.Expr, want map[string]bool) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && want[sel.Sel.Name] {
				found = true
			}
			return !found
		})
		return found
	}
	overhead := map[string]bool{"TaskOverhead": true}
	seen := map[string]bool{}
	for _, path := range nonTestGoFiles(t) {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := declName(fn)
			where := filepath.ToSlash(path) + ":" + name
			check := func(what string, n ast.Node) {
				seen[what] = true
				if !allowed[what][where] {
					t.Errorf("%s: %s %s; Eq. 2 is priced in cluster.Config.Eq2 / WaveOverhead only", fset.Position(n.Pos()), name, what)
				}
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					if n.Op == token.QUO && names(n.Y, bandwidths) {
						check("divides", n)
					}
					if n.Op == token.MUL && (names(n.X, overhead) || names(n.Y, overhead)) {
						check("multiplies", n)
					}
				case *ast.AssignStmt:
					for _, rhs := range n.Rhs {
						if n.Tok == token.QUO_ASSIGN && names(rhs, bandwidths) {
							check("divides", n)
						}
						if n.Tok == token.MUL_ASSIGN && (names(rhs, overhead) || names(n.Lhs[0], overhead)) {
							check("multiplies", n)
						}
					}
				}
				return true
			})
		}
	}
	if !seen["divides"] || !seen["multiplies"] {
		t.Fatalf("found no pricing expression (%v) — parsing broken", seen)
	}
}
