# Tier-1 gate plus the perf-trajectory harness. `make ci` is what a future
# pipeline should run; `make bench` appends a Table I snapshot to
# BENCH_table1.json so every PR leaves comparable numbers behind.

GO ?= go
BENCH_LABEL ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo dev)

.PHONY: build test vet race bench bench-compare test-lp-long examples serve-smoke corpus-smoke perfbench-check ci fmt

build:
	$(GO) build ./...

# Build every example program and run the quickstart end to end: the
# examples consume only the public `wsp` facade, so this is the gate that
# keeps the facade and its documented usage from drifting apart.
examples:
	$(GO) build -o /dev/null ./examples/quickstart ./examples/sorting ./examples/fulfillment ./examples/lifelong ./examples/codesign
	$(GO) run ./examples/quickstart

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Table I synthesis + the full Table I solve and its two dominant stages
# (Algorithm 1 realization, validation by simulation) + solver-pool
# throughput + the contract→ILP path (ablation with its exact, hybrid and
# root-cut variants, and the LP-core microbenchmarks in their exact, float
# and hybrid modes) + the repeated-solve layers (refinement, lifelong,
# design sweep), recorded with allocation stats.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkTableI$$|BenchmarkTableIEndToEnd|BenchmarkRealization|BenchmarkValidate|BenchmarkTableIParallel|BenchmarkSolveBatch|BenchmarkSynthesizerAblation|BenchmarkLP|BenchmarkRefinement|BenchmarkLifelong|BenchmarkDesignSweep' -benchmem -benchtime 100x . | \
		$(GO) run ./scripts/benchjson -o BENCH_table1.json -label "$(BENCH_LABEL)"

# Diff the last two recorded snapshots per benchmark — the trajectory file
# is long enough that regressions hide in the raw JSON. Benchmark names are
# normalized (GOMAXPROCS suffix stripped), so snapshots recorded on machines
# with different core counts still pair up.
bench-compare:
	$(GO) run ./scripts/benchjson -compare -o BENCH_table1.json

# Long-running simplex parity fuzz (production revised engine against the
# dense test oracle, hybrid and float modes against exact) under the race
# detector, plus the parallel-vs-sequential search parity fuzz (workers
# 1/2/4 against the sequential walk, forced multi-core so subtree workers
# really overlap).
# The short version of the same property tests runs in every `go test ./...`;
# LP_PARITY_ROUNDS scales the fuzz rounds.
test-lp-long:
	LP_PARITY_ROUNDS=2000 GOMAXPROCS=4 $(GO) test -race -run 'TestRevisedParity|TestHybridDisagreementFallback|TestFloatRevisedPartial|TestParallelSearch' -timeout 40m ./internal/lp

# End-to-end daemon smoke: build wspd, start it, hit /healthz and one
# /v1/solve, then SIGTERM and require a drain-clean exit 0. This is the
# gate for the service's lifecycle contract (serve → answer → drain).
serve-smoke:
	$(GO) run ./scripts/servesmoke

# Scenario-corpus smoke: solve two seeded generator families under the
# default knobs, write the JSON report and its bench lines, and require
# benchjson to ingest those lines (it exits 1 when nothing parses) — the
# gate that keeps the corpus runner, the wsp-corpus-report/v2 schema, and
# the benchjson label format from drifting apart.
corpus-smoke:
	$(GO) run ./cmd/wsp corpus run -families stripes,rings -label corpus-smoke \
		-json /tmp/wsp-corpus-report.json -bench /tmp/wsp-corpus-bench.txt
	rm -f /tmp/wsp-corpus-trajectory.json
	$(GO) run ./scripts/benchjson -o /tmp/wsp-corpus-trajectory.json -label corpus-smoke \
		< /tmp/wsp-corpus-bench.txt

# The benchmark is its own module (perfbench/go.mod, `replace repro => ../`),
# so `./...` above never builds it; vet and test it here so a change to the
# packages it imports cannot break it unseen.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# Fail when any file needs gofmt, listing the offenders.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

ci: fmt build vet test race examples serve-smoke corpus-smoke perfbench-check
