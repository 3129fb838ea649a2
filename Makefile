GO ?= go

.PHONY: check fmtcheck vet docscheck build race covercheck benchtest test bench bins clean

## check: the one verification gate — gofmt, vet, docs lint, build,
## race-enabled tests with a coverage profile, the ratcheted coverage gate
## and the benchmark module's own tests
check: fmtcheck vet docscheck build race covercheck benchtest

## fmtcheck: fail when any file needs gofmt
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

## vet: both modules. bench/ type-checks against the internal functions the
## repo benchmark pins (bench/README.md), so a refactor that breaks one fails
## here, not in the benchmark driver. The arm64 pass type-checks the kernels'
## portable twins and non-amd64 stubs against their callers (asmdecl checks
## the amd64 assembly against its declarations in the normal pass), so a
## changed assembly signature cannot leave them behind; the ppc64 pass does
## the same for the FME1 codec's word-by-word twin, which only a big-endian or
## 32-bit target compiles
vet:
	$(GO) vet ./...
	$(GO) -C bench vet ./...
	GOARCH=arm64 $(GO) vet ./internal/matrix ./internal/exec
	GOARCH=ppc64 $(GO) vet ./internal/matrix

## docscheck: every package must carry a package-level doc comment
docscheck:
	$(GO) run ./tools/docscheck

build:
	$(GO) build ./...

## race: every test under the race detector with a coverage profile — the
## output goes to race.log, whose last 200 lines are printed when it fails —
## then the two tests that need the kernelcount tag (the tag compiles call
## counters in: the assembly kernels are the path at the benchmark's block
## shapes — one sparse x dense call per block in each orientation, one 8x8
## transpose call per GNMF transpose at AVX-512 — and a GNMF iteration with
## rebind counts no dense block twice), the kernel, fused-task and block-grid
## micro-benchmarks (BenchmarkUnaryStrip, BenchmarkSpMMPanel, the GNMF shapes
## of BenchmarkTransposeDense with their fresh, reused and arena arms, and
## BenchmarkMatrixGrid among them), the trace and journal overhead
## benchmarks (at one iteration they print the off and on timings and the
## journal benchmark's median off2/off, metrics/off, journal/off and
## journal+metrics/off ratios; no bound is checked there) and the FME1 wire
## benchmark (codec,
## loopback-socket and arena arms) once each so they cannot rot. The tests of
## what runs concurrently since the executor walks the plan DAG — the executor
## itself, stage lists and journals kept in plan order, per-stage stats,
## shared node lanes, the one dispatch gate — a node's lanes bound across
## the stages of two tenants and across pooled TCP sessions, the workers'
## lanes alone bounding the coordinator's dispatch at GOMAXPROCS=1, and the
## weighted round-robin turn its lanes take tasks on, oldest stage first —,
## a worker's in-flight count against the lanes holding its tasks, the task
## samples each stage is handed, the non-zero counts concurrent tasks fold
## into a result under its sink's lock, with the kept total they give a
## matrix, and the task arenas that concurrent tasks take from one pool and
## reset, the one slowdown history
## that sessions sharing a registry fold their stages into, the
## stages folded at once into one registry, a traced session's journal
## replayed into the calibration and registry it folded live, and the
## masked SDDMM's super-tiles — the group kernel against its portable twin,
## and every masked query's bits with blocks grouped and one by one — and
## the element-wise strips against their portable twins and formulas,
## run again ten times at GOMAXPROCS=2, so an ordering flake shows here
## rather than in a single tier-1 run. Every alternative of DAGTESTS must
## name a test of DAGPKGS: one that matches none fails the target before
## anything runs, so a renamed test cannot drop out of the rerun unnoticed
DAGTESTS = Executor|GoldenStageLists|HitDispatches|ConformanceJournal|FlightPeakMem|PipelineDiffGNMF|Overlapping|SharesNodeLanes|QueryLogParts|OwnTaskSamples|TraceShapeUnchanged|OfflineTraceEqualsLive|JournalCarriesLayerMetrics|TraceCoversEveryQuery|MatrixNNZMatchesScan|ReboundOutputDensityExact|TaskArenaNeverEscapes|ShareOneSlowdownHistory|SDDMMGroupMatchesPortable|SuperTileOrderKeepsBits|StripKernelsMatchPortable|QueriesListEachQueryOnce|ConcurrentStageFolds|ReplayEqualsLive|AttemptsNameTheLane|SharedGateBoundsNode|PooledSessionsShareWorkerLanes|WorkerLanesAloneBound|WeightedRoundRobin|SharedSchedulerInterleaves|OldestStageFirst|ActiveTasksStayWithinTheLanes
DAGPKGS = . ./internal/core ./internal/exec ./internal/rt/... ./internal/obs ./internal/sched ./internal/plancache ./internal/block ./internal/matrix ./internal/serve
race:
	@listed="$$($(GO) test -list '$(DAGTESTS)' $(DAGPKGS))" || { echo "$$listed"; exit 1; }; \
	for alt in $$(echo '$(DAGTESTS)' | tr '|' ' '); do \
		echo "$$listed" | grep -Eq "^Test.*$$alt" || { echo "DAGTESTS: $$alt matches no test in $(DAGPKGS)"; exit 1; }; \
	done
	@echo "$(GO) test -race -count=1 -coverprofile=coverage.out -covermode=atomic ./... > race.log"
	@$(GO) test -race -count=1 -coverprofile=coverage.out -covermode=atomic ./... > race.log 2>&1 || \
		{ echo "go test -race failed; the last 200 lines of race.log:"; tail -n 200 race.log; exit 1; }
	GOMAXPROCS=2 $(GO) test -race -count=10 -run '$(DAGTESTS)' $(DAGPKGS)
	$(GO) test -tags kernelcount -run 'FastPathIsThePath|NoCountScanOnRebind' . ./internal/matrix
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/matrix ./internal/exec ./internal/block
	$(GO) test -run '^$$' -bench 'Overhead$$|BlockWire' -benchtime 1x .

## covercheck: parse coverage.out (written by `make race`), print the
## per-package statement-coverage table, and fail when total coverage drops
## below the checked-in baseline (tools/covercheck/baseline.txt). The
## baseline only ratchets up: PRs that add coverage bump it.
covercheck:
	$(GO) run ./tools/covercheck coverage.out

## benchtest: bench/'s own tests — TestWorkloads checks every workload's
## result digest against its ⅛-scale internal/ref twin, the end-to-end
## guard on a change of plan (e.g. a chain's association)
benchtest:
	$(GO) -C bench test ./...

test:
	$(GO) test ./...

## bench: the repo benchmark (BENCHMARK.json; see bench/README.md)
bench:
	$(GO) -C bench run fuseme/bench -workload all

## bins: build the command-line binaries into ./bin
bins:
	mkdir -p bin
	$(GO) build -o bin/ ./cmd/...

clean:
	rm -rf bin coverage.out race.log
