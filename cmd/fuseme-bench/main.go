// Command fuseme-bench regenerates the tables and figures of the FuseME
// paper's evaluation (Section 6) on the simulated cluster.
//
// Usage:
//
//	fuseme-bench -exp all
//	fuseme-bench -exp fig12a
//	fuseme-bench -exp fig14 -scale 0.1
//	fuseme-bench -list
//
// Every number it prints is on the Eq. 2 simulated clock. Measured
// wall-clock performance is the repo benchmark's job: see bench/README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fuseme/internal/experiments"
	"fuseme/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment ID to run (see -list)")
	scale := flag.Float64("scale", 1, "dimension scale factor in (0,1]")
	nodes := flag.Int("nodes", 0, "override worker node count (default: paper's 8)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON file of the bench run (per-experiment spans; stage/task detail for real executions)")
	flightOut := flag.String("flight-out", "", "write a JSONL flight record of the bench run (one line per executed stage: predicted vs measured)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	flag.Parse()

	if *list {
		fmt.Println(listLine())
		return
	}
	opts := experiments.Options{Scale: *scale, Nodes: *nodes}
	var flightFile *os.File
	if *traceOut != "" || *flightOut != "" {
		opts.Obs = &obs.Obs{}
		if *traceOut != "" {
			opts.Obs.Trace = obs.NewRecorder()
		}
		if *flightOut != "" {
			f, ferr := os.Create(*flightOut)
			if ferr != nil {
				fmt.Fprintln(os.Stderr, "fuseme-bench:", ferr)
				os.Exit(1)
			}
			flightFile = f
			opts.Obs.Flight = obs.NewJSONL(f)
		}
	}
	tables, err := experiments.Run(*exp, opts)
	for _, t := range tables {
		fmt.Println(t.Render())
	}
	if *traceOut != "" {
		if werr := writeTrace(*traceOut, opts.Obs.Trace); werr != nil {
			fmt.Fprintln(os.Stderr, "fuseme-bench:", werr)
			os.Exit(1)
		}
		fmt.Println("trace:", *traceOut)
	}
	if *flightOut != "" {
		werr := opts.Obs.Flight.Flush()
		if cerr := flightFile.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "fuseme-bench:", werr)
			os.Exit(1)
		}
		fmt.Println("flight:", *flightOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fuseme-bench:", err)
		os.Exit(1)
	}
}

// listLine is what -list prints: the registered experiment ids plus "all".
func listLine() string {
	return "experiments: " + strings.Join(experiments.IDs(), " ") + " all"
}

func writeTrace(path string, rec *obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
