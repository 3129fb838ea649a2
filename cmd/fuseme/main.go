// Command fuseme runs matrix queries on the FuseME engine, or on one of the
// comparison engines, from the command line. It has three modes:
//
//	fuseme [flags]       run one query (run)
//	fuseme gen [flags]   write a generated matrix file (runGen)
//	fuseme repl          an interactive shell (runRepl)
//
// The query mode declares an input as name:ROWSxCOLS[:density], the shell
// as \gen NAME ROWSxCOLS [density], and both fill it with deterministic
// random data, by the rule gen's synthetic matrices follow:
//
//	fuseme -in X:4000x4000:0.01 -in U:4000x100 -in V:4000x100 \
//	       -e 'O = X * log(U %*% t(V) + 1e-3)'
//
// -plan prints the physical plan instead of executing, -sim dry-runs the
// query at full scale on the paper's 8-node cluster, -engine switches
// engines, and -explain, -trace-out, -journal-out, -metrics-addr and
// -report observe a run; docs/OPERATIONS.md describes every flag.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"fuseme"
)

func main() {
	mode, args := "fuseme", os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "gen":
		mode, err = "fuseme gen", runGen(args[1:], os.Stdout, os.Stderr)
	case len(args) > 0 && args[0] == "repl":
		mode, err = "fuseme repl", runRepl(os.Stdin, os.Stdout)
	default:
		err = run(args, os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", mode, err)
		os.Exit(1)
	}
}

// run is the query mode: it parses args as fuseme's flags and writes what
// the query prints to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("fuseme", flag.ExitOnError)
	var inputs []string
	expr := fs.String("e", "", "query script (alternatively -f)")
	file := fs.String("f", "", "file containing the query script")
	engine := fs.String("engine", "fuseme", "engine: fuseme|systemds|distme|matfast|tensorflow")
	plan := fs.Bool("plan", false, "print the physical plan instead of executing")
	sim := fs.Bool("sim", false, "simulate at full scale on the paper's cluster (no data materialised)")
	blockSize := fs.Int("block", 64, "block size for real execution")
	runtime := fs.String("runtime", "sim", "execution backend: sim (in-process) or tcp (fuseme-worker processes)")
	workers := fs.String("workers", "", "comma-separated worker addresses for -runtime=tcp (default: $FUSEME_WORKERS)")
	joinAddr := fs.String("join-addr", "", "with -runtime=tcp, serve a join listener on this address so additional fuseme-worker -join processes can enroll mid-run (port 0 = ephemeral)")
	seed := fs.Int64("seed", 42, "random seed for generated inputs")
	verbose := fs.Bool("v", false, "print result matrices (small outputs only)")
	explain := fs.Bool("explain", false, "print each operator's (P,Q,R) and predicted memory/net/comp terms before executing")
	traceOut := fs.String("trace-out", "", "write a Chrome trace_event JSON file of the execution (load in chrome://tracing)")
	journalOut := fs.String("journal-out", "", "write the query event journal (planned/stage/done lifecycle, JSONL; each stage_end carries the stage's predicted-vs-measured flight record) to this file (default: $FUSEME_JOURNAL)")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus /metrics and JSON /debug/stats on this address during the run")
	report := fs.Bool("report", false, "print the cost-model calibration report (predicted vs measured, back-solved bandwidths) after executing")
	fs.Func("in", "input declaration name:ROWSxCOLS[:density]; repeatable", func(v string) error {
		inputs = append(inputs, v)
		return nil
	})
	fs.Parse(args)

	script := *expr
	if *file != "" {
		b, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		script = string(b)
	}
	if script == "" {
		return fmt.Errorf("no query: use -e or -f")
	}

	if *sim {
		return simulate(w, script, inputs, *engine)
	}

	cfg := fuseme.LocalClusterConfig()
	cfg.BlockSize = *blockSize
	cfg.Runtime = *runtime
	if *workers != "" {
		cfg.Workers = strings.Split(*workers, ",")
	}
	var opts []fuseme.Option
	if *traceOut != "" {
		opts = append(opts, fuseme.WithTracing())
	}
	// The -journal-out file is this command's: the session flushes into it
	// on Close, the command closes it afterwards.
	var journalFile *os.File
	if *journalOut != "" {
		f, err := os.Create(*journalOut)
		if err != nil {
			return err
		}
		defer f.Close() // error paths only; the success path checks Close below
		journalFile = f
		opts = append(opts, fuseme.WithJournal(fuseme.NewJournal(0, f)))
	}
	if *metricsAddr != "" {
		opts = append(opts, fuseme.WithMetricsAddr(*metricsAddr))
	}
	sess, err := fuseme.NewSession(cfg, opts...)
	if err != nil {
		return err
	}
	defer sess.Close()
	if *metricsAddr != "" {
		fmt.Fprintln(w, "metrics: http://"+sess.MetricsAddr()+"/metrics")
	}
	if err := sess.SetEngine(fuseme.Engine(*engine)); err != nil {
		return err
	}
	if *joinAddr != "" {
		bound, err := sess.ServeJoin(*joinAddr)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "join listener:", bound)
	}
	for i, in := range inputs {
		name, rows, cols, density, err := parseInput(in)
		if err != nil {
			return err
		}
		bindRandom(sess, name, rows, cols, density, *seed+int64(i))
	}
	if *plan {
		desc, err := sess.Explain(script)
		if err != nil {
			return err
		}
		fmt.Fprint(w, desc)
		return nil
	}
	if *explain {
		desc, err := sess.ExplainCosts(script)
		if err != nil {
			return err
		}
		fmt.Fprint(w, desc)
	}
	out, err := sess.Query(script)
	if err != nil {
		return err
	}
	for _, n := range sortedNames(out) {
		m := out[n]
		r, c := m.Dims()
		fmt.Fprintf(w, "%s: %dx%d, nnz=%d, density=%.4g\n", n, r, c, m.NNZ(), m.Density())
		if *verbose && r*c <= 64 {
			vals := m.Dense()
			for i := 0; i < r; i++ {
				for j := 0; j < c; j++ {
					fmt.Fprintf(w, "%9.4f ", vals[i*c+j])
				}
				fmt.Fprintln(w)
			}
		}
	}
	fmt.Fprintln(w, "stats:", sess.LastStats())
	if *report {
		fmt.Fprint(w, sess.Report())
	}
	if *traceOut != "" {
		if err := sess.WriteTraceFile(*traceOut); err != nil {
			return err
		}
		fmt.Fprintln(w, "trace:", *traceOut)
	}
	if journalFile != nil {
		if err := sess.Close(); err != nil {
			return err
		}
		if err := journalFile.Close(); err != nil {
			return err
		}
		fmt.Fprintln(w, "journal:", *journalOut)
	}
	return nil
}

func simulate(w io.Writer, script string, inputs []string, engine string) error {
	sess, err := fuseme.NewSession(fuseme.PaperClusterConfig())
	if err != nil {
		return err
	}
	if err := sess.SetEngine(fuseme.Engine(engine)); err != nil {
		return err
	}
	shapes := map[string]fuseme.Shape{}
	for _, in := range inputs {
		name, rows, cols, density, err := parseInput(in)
		if err != nil {
			return err
		}
		shapes[name] = fuseme.Shape{Rows: rows, Cols: cols, Density: density}
	}
	st, err := sess.Simulate(script, shapes)
	if err != nil {
		switch {
		case fuseme.IsOutOfMemory(err):
			fmt.Fprintln(w, "result: O.O.M.")
		case fuseme.IsTimeout(err):
			fmt.Fprintln(w, "result: T.O.")
		}
		return err
	}
	fmt.Fprintln(w, "simulated:", st)
	return nil
}

// parseInput parses a declaration name:ROWSxCOLS[:density].
func parseInput(s string) (name string, rows, cols int, density float64, err error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return "", 0, 0, 0, fmt.Errorf("bad input %q, want name:ROWSxCOLS[:density]", s)
	}
	rows, cols, density, err = parseShape(parts[1], parts[2:])
	if err != nil {
		return "", 0, 0, 0, fmt.Errorf("input %q: %w", s, err)
	}
	return parts[0], rows, cols, density, nil
}

// parseShape parses the shape every mode declares an input by: ROWSxCOLS
// and, when rest is not empty, a density in (0,1] in rest[0] (else 1).
func parseShape(dims string, rest []string) (rows, cols int, density float64, err error) {
	r, c, ok := strings.Cut(strings.ToLower(dims), "x")
	rows, errR := strconv.Atoi(r)
	cols, errC := strconv.Atoi(c)
	if !ok || errR != nil || errC != nil || rows <= 0 || cols <= 0 {
		return 0, 0, 0, fmt.Errorf("bad dimensions %q", dims)
	}
	density = 1
	if len(rest) > 0 {
		density, err = strconv.ParseFloat(rest[0], 64)
		if err != nil || !(density > 0 && density <= 1) {
			return 0, 0, 0, fmt.Errorf("bad density %q", rest[0])
		}
	}
	return rows, cols, density, nil
}

// sortedNames returns m's names in order.
func sortedNames(m map[string]*fuseme.Matrix) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bindRandom binds name to the deterministic random matrix a declaration
// stands for: sparse with values in [1,5) when density < 1, else dense with
// values in [0,1). fuseme gen draws its synthetic matrices by the same rule.
func bindRandom(sess *fuseme.Session, name string, rows, cols int, density float64, seed int64) *fuseme.Matrix {
	if density < 1 {
		return sess.RandomSparse(name, rows, cols, density, 1, 5, seed)
	}
	return sess.RandomDense(name, rows, cols, 0, 1, seed)
}
