GO ?= go

.PHONY: check fmtcheck vet docscheck build race covercheck test bench bins clean

## check: the one verification gate — gofmt, vet, docs lint, build,
## race-enabled tests with a coverage profile, and the ratcheted coverage gate
check: fmtcheck vet docscheck build race covercheck

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
## then the one test that needs the kernelcount tag (the assembly kernels are
## the path at the benchmark's block shapes; the tag compiles call counters
## in), the kernel and fused-task micro-benchmarks (BenchmarkUnaryStrip among
## them), the two observability overhead guards (disabled fast path,
## journal < 2 %) and the FME1 wire benchmark (codec, loopback-socket and
## arena arms) once each so they cannot rot
race:
	@echo "$(GO) test -race -count=1 -coverprofile=coverage.out -covermode=atomic ./... > race.log"
	@$(GO) test -race -count=1 -coverprofile=coverage.out -covermode=atomic ./... > race.log 2>&1 || \
		{ echo "go test -race failed; the last 200 lines of race.log:"; tail -n 200 race.log; exit 1; }
	$(GO) test -tags kernelcount -run FastPathIsThePath ./internal/matrix
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/matrix ./internal/exec
	$(GO) test -run '^$$' -bench 'Overhead$$|BlockWire' -benchtime 1x .

## covercheck: parse coverage.out (written by `make race`), print the
## per-package statement-coverage table, and fail when total coverage drops
## below the checked-in baseline (tools/covercheck/baseline.txt). The
## baseline only ratchets up: PRs that add coverage bump it.
covercheck:
	$(GO) run ./tools/covercheck coverage.out

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
