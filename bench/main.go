// Command bench is the repository's benchmark: one command runs a workload
// in a fresh process, checks its outputs and prints every metric by name
// with its unit. See README.md for the workload and metric catalogue.
//
//	go -C bench run fuseme/bench -workload gnmf_sim -seed 1            # end-to-end metrics
//	go -C bench run fuseme/bench -workload gnmf_sim -seed 1 -trace 1   # per-layer metrics + trace
//	go -C bench run fuseme/bench -workload all -seed 1                 # every workload, both runs
//	go -C bench run fuseme/bench -workload all -seed 1 -repeat 10      # spread against the bounds
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
)

// workloadNames lists the six workload names in catalogue order.
func workloadNames() []string {
	var names []string
	for _, sp := range batchSpecs {
		names = append(names, sp.name)
	}
	return append(names, "serve_http")
}

func main() {
	var o options
	var trace, repeat int
	flag.StringVar(&o.workload, "workload", "", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&o.ops, "ops", 0, "run exactly this many timed ops per timed window instead of -seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics, Chrome trace, self-time table")
	flag.StringVar(&o.traceOut, "trace-out", "", "Chrome trace file (default trace-<workload>.json)")
	flag.Float64Var(&o.scale, "scale", 1, "scale every input dimension (tests use 0.05)")
	flag.IntVar(&repeat, "repeat", 0, "run each workload N times in fresh processes and report the spread")
	flag.Parse()
	o.trace = trace != 0

	// The benchmark measures defaults: any FUSEME_* variable changes them.
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "FUSEME_") {
			fatalf(2, "refusing to run with %s set: unset every FUSEME_* variable", strings.SplitN(kv, "=", 2)[0])
		}
	}
	if flag.NArg() > 0 || o.seconds <= 0 || o.scale <= 0 || o.ops < 0 || repeat < 0 {
		fatalf(2, "bad arguments; see -help")
	}

	names := workloadNames()
	if o.workload != "all" {
		if !slices.Contains(names, o.workload) {
			fatalf(2, "unknown workload %q (want one of %s, or all)", o.workload, strings.Join(names, ", "))
		}
		names = []string{o.workload}
	}
	switch {
	case repeat > 0:
		os.Exit(runRepeat(names, o, repeat))
	case o.workload == "all":
		os.Exit(runAll(names, o))
	}

	fmt.Printf("bench: workload=%s seed=%d trace=%d scale=%g seconds=%g ops=%d\n",
		o.workload, o.seed, trace, o.scale, o.seconds, o.ops)
	fmt.Println("machine:", machineRecord())
	r, err := runOne(o)
	if err != nil {
		fatalf(1, "%s: %v", o.workload, err)
	}
	report(os.Stdout, o, r)
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

func runOne(o options) (*result, error) {
	if o.workload == "serve_http" {
		return runServe(o)
	}
	for i := range batchSpecs {
		if sp := &batchSpecs[i]; sp.name == o.workload {
			if o.trace {
				return sp.runTraced(o)
			}
			return sp.run(o)
		}
	}
	return nil, fmt.Errorf("unknown workload")
}

// machineRecord is embedded in every output: numbers from different
// machines are not comparable.
func machineRecord() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("nproc=%d cpu=%q go=%s gomaxprocs=%d commit=%s",
		runtime.NumCPU(), cpu, runtime.Version(), runtime.GOMAXPROCS(0), commit)
}

// outputLine is the last line of standard output: the driver's contract.
type outputLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric by name with its unit, then the JSON line.
func report(w io.Writer, o options, r *result) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintln(w, "result_digest:", r.digest)
	fmt.Fprintln(w, "exact:", r.exact)
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	line := outputLine{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := r.values[d.name]
		note := ""
		if d.name == "op_s_p50" {
			note = fmt.Sprintf("  (n=%d)", r.samples)
		}
		fmt.Fprintf(w, "metric %-30s %.9g %s%s\n", d.name, v, d.unit, note)
		line.Metrics[d.name] = metricValue{v, d.unit}
	}
	fmt.Fprintf(w, "metric %-30s %.9g ratio  (%d of %d ops)\n", "fail_share",
		float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	out, err := json.Marshal(line)
	if err != nil {
		fatalf(1, "encoding result: %v", err) // a NaN metric
	}
	fmt.Fprintln(w, string(out))
}

// child runs one workload in a fresh process, streaming its output through,
// and returns its parsed last line.
func child(o options, quiet bool) (outputLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return outputLine{}, err
	}
	args := []string{"-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-ops", fmt.Sprint(o.ops), "-scale", fmt.Sprint(o.scale), "-trace", "0"}
	if o.trace {
		args[len(args)-1] = "1"
		if o.traceOut != "" {
			args = append(args, "-trace-out", o.traceOut)
		}
	}
	cmd := exec.Command(exe, args...)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, os.Stderr
	err = cmd.Run()
	if !quiet {
		os.Stdout.Write(buf.Bytes())
	}
	if err != nil {
		return outputLine{}, fmt.Errorf("%s: %w", o.workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var line outputLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return outputLine{}, fmt.Errorf("%s: last line is not a result: %w", o.workload, err)
	}
	return line, nil
}

// runAll runs every workload untraced and traced, each in a fresh process.
func runAll(names []string, o options) int {
	code := 0
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			co := o
			co.workload, co.trace = name, traced
			line, err := child(co, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
			} else if !line.Correct || line.Failed > 0 {
				code = 1
			}
			fmt.Println()
		}
	}
	return code
}

// runRepeat runs each workload n times untraced in fresh processes, each
// with another seed as the driver does, and prints per end-to-end metric the
// median, the quartiles and the spread against the metric's bound. A timing
// metric that misses its bound needs a longer timed phase, not a wider bound
// or a smaller input.
func runRepeat(names []string, o options, n int) int {
	code := 0
	for _, name := range names {
		vals := map[string][]float64{}
		failed := 0
		for i := 0; i < n; i++ {
			co := o
			co.workload, co.trace, co.seed = name, false, o.seed+int64(i)
			line, err := child(co, true)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			failed += line.Failed
			for m, v := range line.Metrics {
				vals[m] = append(vals[m], v.Value)
			}
		}
		fmt.Printf("%s: %d runs, seeds %d..%d, %d failed ops\n", name, n, o.seed, o.seed+int64(n)-1, failed)
		fmt.Printf("  %-18s %12s %12s %12s %10s %12s %7s\n", "metric", "median", "q1", "q3", "iqr/med", "range/med", "bound")
		for _, d := range endToEnd {
			v := vals[d.name]
			med := median(v)
			q1, q3 := med, med
			if len(v) >= 2 {
				q1, q3 = quartiles(v)
			}
			iqr := (q3 - q1) / med
			rng := (quantile(v, 1) - quantile(v, 0)) / med
			verdict := "steady"
			switch {
			case d.name == "setup_s":
				verdict = "(median only)"
			case iqr > d.bound:
				verdict, code = "OVER BOUND", 1
			case iqr > d.bound/3:
				verdict = "within bound, above a third of it"
			}
			fmt.Printf("  %-18s %12.6g %12.6g %12.6g %10.4f %12.4f %7.2f  %s\n", d.name, med, q1, q3, iqr, rng, d.bound, verdict)
		}
		if failed > 0 {
			code = 1
		}
	}
	return code
}
