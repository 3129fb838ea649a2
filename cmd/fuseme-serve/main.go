// Command fuseme-serve runs the multi-tenant query service: one warm cluster
// (sim or TCP) accepting concurrent plan submissions over HTTP/JSON, with
// per-tenant admission control, weighted-fair task scheduling and a shared
// compiled-plan cache (see internal/serve).
//
// A minimal open (single-tenant) instance on the in-process cluster:
//
//	fuseme-serve -addr 127.0.0.1:8080
//
// A two-worker TCP instance with two authenticated tenants and a preloaded
// dataset:
//
//	fuseme-worker -addr 127.0.0.1:7070 -exit-on-disconnect &
//	fuseme-worker -addr 127.0.0.1:7071 -exit-on-disconnect &
//	fuseme-serve -runtime tcp -workers 127.0.0.1:7070,127.0.0.1:7071 \
//	    -tenants 'acme:s3cret:2,beta:hunter2:1' \
//	    -dataset 'X=sparse:4000x4000:0.01:1:5:42'
//
// Endpoints: POST /v1/query, GET /v1/queries (live + recent queries), GET
// /v1/queries/{id} (EXPLAIN ANALYZE-style per-stage introspection), GET
// /v1/status, GET /metrics (Prometheus), GET /debug/stats (JSON).
// SIGINT/SIGTERM drains in-flight plans (rejecting new submissions with 503)
// before exiting; -drain-timeout bounds the wait.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fuseme"
	"fuseme/internal/serve"
)

// stringsFlag collects a repeatable string flag.
type stringsFlag []string

func (f *stringsFlag) String() string     { return strings.Join(*f, ",") }
func (f *stringsFlag) Set(v string) error { *f = append(*f, v); return nil }

// EnvTenants is the tenant table: name:token:weight[:quotaMB], comma
// separated; the -tenants flag wins.
const EnvTenants = "FUSEME_TENANTS"

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "address the query API listens on")
	runtimeKind := flag.String("runtime", "sim", "execution backend: sim (in-process) or tcp (fuseme-worker processes)")
	workers := flag.String("workers", "", "comma-separated worker addresses for -runtime tcp (default FUSEME_WORKERS)")
	engine := flag.String("engine", "fuseme", "planning engine: fuseme, systemds, distme, matfast, tensorflow")
	nodes := flag.Int("nodes", 0, "cluster nodes (default 2, or the worker count under tcp)")
	tasksPerNode := flag.Int("tasks-per-node", 4, "concurrent tasks per node")
	blockSize := flag.Int("block-size", 64, "matrix block width/height")
	taskMem := flag.Int64("task-mem-bytes", 4<<30, "per-task memory budget θt in bytes")
	sessions := flag.Int("sessions", 8, "session pool size: max concurrently executing plans")
	budget := flag.Int64("budget-bytes", 0, "cluster memory budget carved into tenant reservations (default nodes x tasks x θt)")
	queueDepth := flag.Int("queue-depth", 16, "per-tenant admission queue bound")
	queueWait := flag.Duration("queue-wait", 10*time.Second, "max time a queued submission waits for memory before 429")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight plans on shutdown")
	tenants := flag.String("tenants", "", "tenant table name:token:weight[:quotaMB],... (default "+EnvTenants+", or a single open tenant)")
	journal := flag.String("journal", "", "sink the query event journal to this JSONL file (the in-memory ring behind /v1/queries is always on)")
	var datasets stringsFlag
	flag.Var(&datasets, "dataset", "preload a named dataset: name=dense:RxC:lo:hi:seed, name=sparse:RxC:density:lo:hi:seed or name=file:PATH (repeatable)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "fuseme-serve:", err)
		os.Exit(1)
	}

	workerList := splitList(*workers)
	if len(workerList) == 0 {
		workerList = splitList(os.Getenv("FUSEME_WORKERS"))
	}
	n := *nodes
	if n == 0 {
		n = 2
		if *runtimeKind == "tcp" {
			n = len(workerList)
		}
	}
	ccfg := fuseme.ClusterConfig{
		Nodes:         n,
		TasksPerNode:  *tasksPerNode,
		TaskMemBytes:  *taskMem,
		NetBandwidth:  1e9,
		CompBandwidth: 50e9,
		BlockSize:     *blockSize,
		Runtime:       *runtimeKind,
		Workers:       workerList,
	}

	tenantSpec := *tenants
	if tenantSpec == "" {
		tenantSpec = os.Getenv(EnvTenants)
	}
	tenantList, err := serve.ParseTenants(tenantSpec)
	if err != nil {
		fail(err)
	}

	scfg := serve.Config{
		Cluster:     ccfg,
		Engine:      fuseme.Engine(*engine),
		Tenants:     tenantList,
		Sessions:    *sessions,
		BudgetBytes: *budget,
		QueueDepth:  *queueDepth,
		QueueWait:   *queueWait,
	}
	scfg.JournalPath = *journal
	srv, err := serve.New(scfg)
	if err != nil {
		fail(err)
	}
	for _, spec := range datasets {
		name, m, err := serve.ParseDataset(spec, *blockSize)
		if err != nil {
			fail(err)
		}
		srv.RegisterDataset(name, m)
		rows, cols := m.Dims()
		fmt.Printf("fuseme-serve dataset %s: %dx%d, %d bytes\n", name, rows, cols, m.SizeBytes())
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("fuseme-serve listening on http://%s (runtime=%s, %d tenants, %d sessions)\n",
		*addr, *runtimeKind, max(1, len(tenantList)), *sessions)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
	case s := <-sig:
		fmt.Printf("fuseme-serve: %v: draining (deadline %s)\n", s, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "fuseme-serve: drain:", err)
		}
		cancel()
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = httpSrv.Shutdown(shutCtx)
		shutCancel()
		fmt.Println("fuseme-serve: stopped")
	}
}

func splitList(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
