// GNMF: factorise a rating matrix X into V x U with Gaussian non-negative
// matrix factorisation (the paper's Eq. 6), running the multiplicative
// updates as FuseME queries and tracking the reconstruction error.
//
// This is the Section 6.4 workload at laptop scale; run
// `fuseme-bench -exp fig14` for the paper-scale simulated comparison.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"fuseme"
)

func main() {
	runtime := flag.String("runtime", "sim", "execution backend: sim (in-process) or tcp (fuseme-worker processes)")
	workers := flag.String("workers", "", "comma-separated worker addresses for -runtime=tcp (default: $FUSEME_WORKERS)")
	iters := flag.Int("iters", 8, "GNMF iterations")
	traceOut := flag.String("trace-out", "", "write a Chrome trace of the whole run (one merged cluster timeline under -runtime=tcp)")
	journalOut := flag.String("journal-out", "", "write the query event journal (JSONL; each stage_end carries the stage's predicted-vs-measured flight record)")
	flag.Parse()

	const (
		users, items = 1200, 800
		k            = 16
	)
	iterations := *iters
	cfg := fuseme.LocalClusterConfig()
	cfg.Runtime = *runtime
	if *workers != "" {
		cfg.Workers = strings.Split(*workers, ",")
	}
	var opts []fuseme.Option
	if *traceOut != "" {
		opts = append(opts, fuseme.WithTracing())
	}
	var journalFile *os.File
	if *journalOut != "" {
		f, err := os.Create(*journalOut)
		if err != nil {
			log.Fatal(err)
		}
		journalFile = f
		opts = append(opts, fuseme.WithJournal(fuseme.NewJournal(0, f)))
	}
	sess, err := fuseme.NewSession(cfg, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	// Rating matrix (dense synthetic ratings in [1,5)) and random factors.
	sess.RandomDense("X", users, items, 1, 5, 1)
	sess.RandomDense("U", k, items, 0.1, 0.9, 2)
	sess.RandomDense("V", users, k, 0.1, 0.9, 3)

	// Eq. 6 of the paper updates both factors from the previous iterate;
	// alternating (the V step uses the fresh U) keeps the loss monotone,
	// which reads better in a demo.
	const updateU = `U2 = U * (t(V) %*% X) / (t(V) %*% V %*% U)`
	const updateV = `V2 = V * (X %*% t(U)) / (V %*% (U %*% t(U)))`
	fmt.Printf("GNMF on %dx%d ratings, k=%d, engine %s, runtime %s\n", users, items, k, sess.EngineName(), *runtime)
	for it := 1; it <= iterations; it++ {
		out, err := sess.Query(updateU)
		if err != nil {
			log.Fatalf("iteration %d: %v", it, err)
		}
		sess.Bind("U", out["U2"])
		out, err = sess.Query(updateV)
		if err != nil {
			log.Fatalf("iteration %d: %v", it, err)
		}
		sess.Bind("V", out["V2"])

		loss, err := sess.Query(`l = sum((X - V %*% U)^2)`)
		if err != nil {
			log.Fatal(err)
		}
		st := sess.LastStats()
		fmt.Printf("iter %2d: squared error %.4g (comm %d KB, %d stages)\n",
			it, loss["l"].At(0, 0), st.TotalCommBytes()/1024, st.Stages)
	}

	// Predict: the densified V x U approximates X; recommend the top item
	// for user 0 among previously unrated items (all rated here, so just
	// report the best-predicted item).
	pred, err := sess.Query(`P = V %*% U`)
	if err != nil {
		log.Fatal(err)
	}
	p := pred["P"]
	best, bestVal := 0, p.At(0, 0)
	for j := 1; j < items; j++ {
		if v := p.At(0, j); v > bestVal {
			best, bestVal = j, v
		}
	}
	fmt.Printf("highest predicted rating for user 0: item %d (%.3f)\n", best, bestVal)

	if *traceOut != "" {
		if err := sess.WriteTraceFile(*traceOut); err != nil {
			log.Fatal(err)
		}
		fmt.Println("trace:", *traceOut)
	}
	if journalFile != nil {
		// Close flushes the journal into the file; the file is ours.
		if err := sess.Close(); err != nil {
			log.Fatal(err)
		}
		if err := journalFile.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("journal:", *journalOut)
	}
}
