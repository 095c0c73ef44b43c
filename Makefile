# Tier-1 gate plus the perf-trajectory harness. `make ci` is what a future
# pipeline should run; `make bench` appends a Table I snapshot to
# BENCH_table1.json so every PR leaves comparable numbers behind.

GO ?= go
BENCH_LABEL ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo dev)

.PHONY: build test vet race bench bench-compare test-lp-long examples serve-smoke corpus-smoke ci fmt

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
# throughput + the contract→ILP path (ablation with its exact
# dense/revised-simplex variants, and the LP-core microbenchmarks incl. the
# BenchmarkLP Exact/ExactDense representation pairs) + the repeated-solve
# layers (refinement, lifelong, design sweep), recorded with allocation
# stats.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkTableI$$|BenchmarkTableIEndToEnd|BenchmarkRealization|BenchmarkValidate|BenchmarkTableIParallel|BenchmarkSolveBatch|BenchmarkSynthesizerAblation|BenchmarkLP|BenchmarkRefinement|BenchmarkLifelong|BenchmarkDesignSweep' -benchmem -benchtime 100x . | \
		$(GO) run ./scripts/benchjson -o BENCH_table1.json -label "$(BENCH_LABEL)"

# Diff the last two recorded snapshots per benchmark — the trajectory file
# is long enough that regressions hide in the raw JSON. Benchmark names are
# normalized (GOMAXPROCS suffix stripped), so snapshots recorded on machines
# with different core counts still pair up.
bench-compare:
	$(GO) run ./scripts/benchjson -compare -o BENCH_table1.json

# Long-running dense-vs-revised simplex parity fuzz under the race detector,
# plus the parallel-vs-sequential search parity fuzz (workers 1/2/4 against
# the sequential walk, forced multi-core so subtree workers really overlap).
# The short version of the same property tests runs in every `go test ./...`;
# LP_PARITY_ROUNDS scales the fuzz rounds.
test-lp-long:
	LP_PARITY_ROUNDS=2000 GOMAXPROCS=4 $(GO) test -race -run 'TestRevisedParity|TestHybridDisagreementFallback|TestFloatRevisedPartialLP|TestParallelSearch' -timeout 40m ./internal/lp

# End-to-end daemon smoke: build wspd, start it, hit /healthz and one
# /v1/solve, then SIGTERM and require a drain-clean exit 0. This is the
# gate for the service's lifecycle contract (serve → answer → drain).
serve-smoke:
	$(GO) run ./scripts/servesmoke

# Scenario-corpus smoke: solve two seeded generator families under the
# default knobs, write the JSON report and its bench lines, and require
# benchjson to ingest those lines (it exits 1 when nothing parses) — the
# gate that keeps the corpus runner, the wsp-corpus-report/v1 schema, and
# the benchjson label format from drifting apart.
corpus-smoke:
	$(GO) run ./cmd/wsp corpus run -families stripes,rings -label corpus-smoke \
		-json /tmp/wsp-corpus-report.json -bench /tmp/wsp-corpus-bench.txt
	rm -f /tmp/wsp-corpus-trajectory.json
	$(GO) run ./scripts/benchjson -o /tmp/wsp-corpus-trajectory.json -label corpus-smoke \
		< /tmp/wsp-corpus-bench.txt

fmt:
	gofmt -l .

ci: build vet test race examples serve-smoke corpus-smoke
