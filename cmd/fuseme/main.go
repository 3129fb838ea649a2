// Command fuseme runs matrix queries on the FuseME engine (or any of the
// comparison engines) from the command line.
//
// Inputs are declared as name:ROWSxCOLS[:density] and filled with
// deterministic uniform-random data:
//
//	fuseme -in X:4000x4000:0.01 -in U:4000x100 -in V:4000x100 \
//	       -e 'O = X * log(U %*% t(V) + 1e-3)'
//
// Use -plan to print the physical plan (fused operators, strategies and
// (P,Q,R) parameters) instead of executing, -sim to dry-run the query at
// full scale on the paper's 8-node cluster, and -engine to switch between
// fuseme, systemds, distme, matfast and tensorflow.
//
// Observability: -explain prints each operator's predicted cost terms
// before executing, -trace-out FILE exports a Chrome trace of the run (a
// single merged cluster timeline under -runtime=tcp), -journal-out FILE
// writes the query's event journal (one stage_end line per executed stage
// carries its predicted-vs-measured flight record), -metrics-addr HOST:PORT
// serves /metrics, /debug/stats and /debug/pprof/ during it, and -report
// prints the cost-model calibration (predicted vs measured, with
// back-solved effective bandwidths) afterwards.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"fuseme"
)

type inputFlag []string

func (f *inputFlag) String() string     { return strings.Join(*f, ",") }
func (f *inputFlag) Set(v string) error { *f = append(*f, v); return nil }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fuseme:", err)
		os.Exit(1)
	}
}

func run() error {
	var inputs inputFlag
	expr := flag.String("e", "", "query script (alternatively -f)")
	file := flag.String("f", "", "file containing the query script")
	engine := flag.String("engine", "fuseme", "engine: fuseme|systemds|distme|matfast|tensorflow")
	plan := flag.Bool("plan", false, "print the physical plan instead of executing")
	sim := flag.Bool("sim", false, "simulate at full scale on the paper's cluster (no data materialised)")
	blockSize := flag.Int("block", 64, "block size for real execution")
	runtime := flag.String("runtime", "sim", "execution backend: sim (in-process) or tcp (fuseme-worker processes)")
	workers := flag.String("workers", "", "comma-separated worker addresses for -runtime=tcp (default: $FUSEME_WORKERS)")
	joinAddr := flag.String("join-addr", "", "with -runtime=tcp, serve a join listener on this address so additional fuseme-worker -join processes can enroll mid-run (port 0 = ephemeral)")
	seed := flag.Int64("seed", 42, "random seed for generated inputs")
	verbose := flag.Bool("v", false, "print result matrices (small outputs only)")
	explain := flag.Bool("explain", false, "print each operator's (P,Q,R) and predicted memory/net/comp terms before executing")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON file of the execution (load in chrome://tracing)")
	journalOut := flag.String("journal-out", "", "write the query event journal (planned/stage/done lifecycle, JSONL; each stage_end carries the stage's predicted-vs-measured flight record) to this file (default: $FUSEME_JOURNAL)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics and JSON /debug/stats on this address during the run")
	report := flag.Bool("report", false, "print the cost-model calibration report (predicted vs measured, back-solved bandwidths) after executing")
	flag.Var(&inputs, "in", "input declaration name:ROWSxCOLS[:density]; repeatable")
	flag.Parse()

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
		return simulate(script, inputs, *engine)
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
		fmt.Println("metrics: http://" + sess.MetricsAddr() + "/metrics")
	}
	if err := sess.SetEngine(fuseme.Engine(*engine)); err != nil {
		return err
	}
	if *joinAddr != "" {
		bound, err := sess.ServeJoin(*joinAddr)
		if err != nil {
			return err
		}
		fmt.Println("join listener:", bound)
	}
	for i, in := range inputs {
		name, rows, cols, density, err := parseInput(in)
		if err != nil {
			return err
		}
		if density < 1 {
			sess.RandomSparse(name, rows, cols, density, 1, 5, *seed+int64(i))
		} else {
			sess.RandomDense(name, rows, cols, 0, 1, *seed+int64(i))
		}
	}
	if *plan {
		desc, err := sess.Explain(script)
		if err != nil {
			return err
		}
		fmt.Print(desc)
		return nil
	}
	if *explain {
		desc, err := sess.ExplainCosts(script)
		if err != nil {
			return err
		}
		fmt.Print(desc)
	}
	out, err := sess.Query(script)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out[n]
		r, c := m.Dims()
		fmt.Printf("%s: %dx%d, nnz=%d, density=%.4g\n", n, r, c, m.NNZ(), m.Density())
		if *verbose && r*c <= 64 {
			vals := m.Dense()
			for i := 0; i < r; i++ {
				for j := 0; j < c; j++ {
					fmt.Printf("%9.4f ", vals[i*c+j])
				}
				fmt.Println()
			}
		}
	}
	fmt.Println("stats:", sess.LastStats())
	if *report {
		fmt.Print(sess.Report())
	}
	if *traceOut != "" {
		if err := sess.WriteTraceFile(*traceOut); err != nil {
			return err
		}
		fmt.Println("trace:", *traceOut)
	}
	if journalFile != nil {
		if err := sess.Close(); err != nil {
			return err
		}
		if err := journalFile.Close(); err != nil {
			return err
		}
		fmt.Println("journal:", *journalOut)
	}
	return nil
}

func simulate(script string, inputs inputFlag, engine string) error {
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
			fmt.Println("result: O.O.M.")
		case fuseme.IsTimeout(err):
			fmt.Println("result: T.O.")
		}
		return err
	}
	fmt.Println("simulated:", st)
	return nil
}

// parseInput parses name:ROWSxCOLS[:density].
func parseInput(s string) (name string, rows, cols int, density float64, err error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return "", 0, 0, 0, fmt.Errorf("bad input %q, want name:ROWSxCOLS[:density]", s)
	}
	name = parts[0]
	dims := strings.SplitN(strings.ToLower(parts[1]), "x", 2)
	if len(dims) != 2 {
		return "", 0, 0, 0, fmt.Errorf("bad dimensions in %q", s)
	}
	rows, err = strconv.Atoi(dims[0])
	if err == nil {
		cols, err = strconv.Atoi(dims[1])
	}
	if err != nil || rows <= 0 || cols <= 0 {
		return "", 0, 0, 0, fmt.Errorf("bad dimensions in %q", s)
	}
	density = 1
	if len(parts) == 3 {
		density, err = strconv.ParseFloat(parts[2], 64)
		if err != nil || density <= 0 || density > 1 {
			return "", 0, 0, 0, fmt.Errorf("bad density in %q", s)
		}
	}
	return name, rows, cols, density, nil
}
