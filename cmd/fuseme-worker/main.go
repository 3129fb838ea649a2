// Command fuseme-worker runs one worker process of the TCP runtime backend.
// A coordinator (a session created with ClusterConfig.Runtime = "tcp", or
// the -runtime=tcp flag of cmd/fuseme and the examples) connects to the
// worker's address, ships stage task descriptors, serves the worker's input
// block fetches, and collects result blocks. Workers are stateless between
// tasks and can serve successive coordinators; kill them with SIGINT. A
// worker has no settings of its own: its kernel threads follow its
// GOMAXPROCS, and its block cache the budget each stage ships.
//
// Run a two-worker cluster on one machine:
//
//	fuseme-worker -addr 127.0.0.1:7070 &
//	fuseme-worker -addr 127.0.0.1:7071 &
//	FUSEME_WORKERS=127.0.0.1:7070,127.0.0.1:7071 gnmf -runtime tcp
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fuseme/internal/obs"
	"fuseme/internal/rt/remote"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "address to listen on (host:port; port 0 for ephemeral)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics and JSON /debug/stats on this address")
	exitOnDisconnect := flag.Bool("exit-on-disconnect", false, "exit cleanly when the last coordinator disconnects instead of lingering for successive coordinators (for clusters whose lifecycle is tied to one fuseme-serve instance)")
	joinAddr := flag.String("join", "", "coordinator join-listener address to register with; the worker re-registers with jittered exponential backoff whenever the coordinator is lost")
	drain := flag.Bool("drain", false, "on SIGTERM/SIGINT announce departure to the coordinator (-join), finish in-flight tasks (up to -drain-timeout), then exit")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long -drain waits for in-flight tasks to finish")
	flag.Parse()

	w, err := remote.NewWorker(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fuseme-worker:", err)
		os.Exit(1)
	}
	fmt.Println("fuseme-worker listening on", w.Addr())

	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		w.SetObs(reg)
		srv, err := obs.ServeMetrics(*metricsAddr, reg, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fuseme-worker:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Println("fuseme-worker metrics on http://" + srv.Addr() + "/metrics")
	}

	stopJoin := make(chan struct{})
	if *joinAddr != "" {
		go joinLoop(*joinAddr, w, stopJoin)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if *exitOnDisconnect {
		select {
		case <-sig:
		case <-w.CoordinatorGone():
			fmt.Println("fuseme-worker: coordinator closed, exiting")
		}
	} else {
		<-sig
	}
	close(stopJoin)
	if *drain {
		fmt.Println("fuseme-worker: draining")
		if *joinAddr != "" {
			if err := remote.Leave(*joinAddr, w.Addr(), 5*time.Second); err != nil {
				fmt.Fprintf(os.Stderr, "fuseme-worker: leave %s: %v\n", *joinAddr, err)
			}
		}
		if w.Drain(*drainTimeout) {
			fmt.Println("fuseme-worker: drained, exiting")
		} else {
			fmt.Fprintf(os.Stderr, "fuseme-worker: drain timed out after %v (%d tasks still running)\n",
				*drainTimeout, w.ActiveTasks())
		}
	}
	w.Close()
	w.Wait()
}

// joinLoop registers the worker with the coordinator's join listener and
// re-registers — with jittered exponential backoff — every time the last
// coordinator control connection drops (coordinator crash or restart).
// Registration is idempotent on the coordinator side, so re-registering
// after a transient drop that the coordinator's own probe already healed is
// harmless.
func joinLoop(joinAddr string, w *remote.Worker, stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	const (
		backoffBase = 200 * time.Millisecond
		backoffCap  = 30 * time.Second
	)
	for {
		delay := backoffBase
		for {
			members, err := remote.Register(joinAddr, w.Addr(), 5*time.Second)
			if err == nil {
				fmt.Printf("fuseme-worker: joined cluster via %s (%d members)\n", joinAddr, len(members))
				break
			}
			jitter := time.Duration(rng.Int63n(int64(delay/2) + 1))
			fmt.Fprintf(os.Stderr, "fuseme-worker: join %s: %v (retrying in %v)\n", joinAddr, err, delay+jitter)
			select {
			case <-time.After(delay + jitter):
			case <-stop:
				return
			}
			if delay *= 2; delay > backoffCap {
				delay = backoffCap
			}
		}
		select {
		case <-w.ControlDrop():
			fmt.Println("fuseme-worker: coordinator lost, re-registering")
		case <-stop:
			return
		}
	}
}
