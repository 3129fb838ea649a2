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
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON file of the bench run's real executions (plan, stage and task spans, rendered from their journal events)")
	journalOut := flag.String("journal-out", "", "write a JSONL event journal of the bench run's real executions (one query per run: planned, stage_start/stage_end with each stage's predicted-vs-measured flight record, done)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	flag.Parse()

	if *list {
		fmt.Println(listLine())
		return
	}
	opts := experiments.Options{Scale: *scale, Nodes: *nodes}
	// One record feeds both files: every real execution emits its events
	// into the journal's sink and, for the trace, onto a timeline.
	var journalFile *os.File
	if *journalOut != "" {
		f, ferr := os.Create(*journalOut)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "fuseme-bench:", ferr)
			os.Exit(1)
		}
		opts.Journal, journalFile = obs.NewJournal(0, f), f
	}
	if *traceOut != "" {
		opts.Timeline = new(obs.Timeline)
	}
	tables, err := experiments.Run(*exp, opts)
	for _, t := range tables {
		fmt.Println(t.Render())
	}
	if opts.Timeline != nil {
		doc, werr := obs.ChromeTrace(opts.Timeline.Events())
		if werr == nil {
			werr = os.WriteFile(*traceOut, doc, 0o666)
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "fuseme-bench:", werr)
			os.Exit(1)
		}
		fmt.Println("trace:", *traceOut)
	}
	if opts.Journal != nil {
		werr := opts.Journal.Flush()
		if cerr := journalFile.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "fuseme-bench:", werr)
			os.Exit(1)
		}
		fmt.Println("journal:", *journalOut)
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
