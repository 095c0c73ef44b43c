# Tier-1 gate plus the perf-trajectory harness. `make ci` is what a future
# pipeline should run; `make bench` appends a Table I snapshot to
# BENCH_table1.json so every PR leaves comparable numbers behind.

GO ?= go
BENCH_LABEL ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo dev)

.PHONY: build test vet race test-procs1 bench bench-smoke bench-compare test-lp-long fuzz-nightly examples serve-smoke corpus-smoke perfbench-check perfbench-smoke ci fmt

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

# The packages whose solves hand tiles to a second goroutine (core's
# realize/validate pipeline, through warehouse.Feeder), run on one P: a
# handoff that waits for a second P to run the other goroutine deadlocks
# here instead of passing on a multi-core machine. -count=1 because the
# test cache does not key on GOMAXPROCS and would replay `make test`.
test-procs1:
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/core ./internal/warehouse ./internal/solverpool ./internal/server ./wsp

# The trajectory's benchmarks: Table I synthesis + the full Table I solve
# and its two dominant stages (Algorithm 1 realization, validation by
# simulation), apart and as the one streamed pass the solve runs +
# solver-pool throughput + the contract→ILP path (ablation with its exact
# variant, the ILP microbenchmarks on contract-shaped rings in the exact
# and float engines, and one contract-synthesis attempt on three corpus
# instances) + the repeated-solve layers (refinement, lifelong, design
# sweep).
BENCH_REGEXP = BenchmarkTableI$$|BenchmarkTableIEndToEnd|BenchmarkRealization|BenchmarkValidate|BenchmarkRealizeValidate|BenchmarkSolveBatch|BenchmarkSynthesizerAblation|BenchmarkLP|BenchmarkContractAttempt|BenchmarkRefinement|BenchmarkLifelong|BenchmarkDesignSweep

# Record every trajectory benchmark, with allocation stats.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_REGEXP)' -benchmem -benchtime 100x . | \
		$(GO) run ./scripts/benchjson -o BENCH_table1.json -label "$(BENCH_LABEL)"

# One iteration of every trajectory benchmark, recording nothing, so
# bench-only code paths cannot rot unseen.
bench-smoke:
	$(GO) test -run '^$$' -bench '$(BENCH_REGEXP)' -benchtime 1x .

# Diff the last two recorded snapshots per benchmark — the trajectory file
# is long enough that regressions hide in the raw JSON. Benchmark names are
# normalized (GOMAXPROCS suffix stripped), so snapshots recorded on machines
# with different core counts still pair up.
bench-compare:
	$(GO) run ./scripts/benchjson -compare -o BENCH_table1.json

# Long-running simplex parity rounds (production revised engine against
# the dense test oracle on random ILPs and on LPs, which are ILPs with no
# integer variable and so decided at the root, budgeted and not, over
# lp.Model edit sequences, contract-shaped networks and Bland's phase-1
# rule, the float engine against exact, the float engine's concrete
# FTRAN/BTRAN/pricing/leaving-row kernels against the generic loops bit
# for bit, the dual's candidate list against its definition) under the
# race detector, plus the fence fuzz (the fenced depth-first
# branch-and-bound loop against the oracle's own walk/task/fold loop in
# internal/lp/fence_oracle_test.go, with the fence lowered so small trees
# fence often).
# The short version of the same property tests runs in every `go test ./...`;
# LP_PARITY_ROUNDS scales the rounds. CI runs this nightly and on manual
# dispatch (.github/workflows/ci.yml, job lp-long).
test-lp-long:
	LP_PARITY_ROUNDS=2000 $(GO) test -race -run 'TestRevisedParity|TestFloatRevisedPartial|TestFloatKernelParity|TestCandidateListInvariant|TestParallelSearch' -timeout 40m ./internal/lp

# The native fuzz targets, 60 s each: over untrusted input, wspio instance
# bodies and their export round trip (FuzzDecode), MovingAI map imports
# (FuzzImportMovingAI) and the wspd solve endpoints (FuzzSolveEndpoints);
# and the simplex's random-problem parity (FuzzRevisedParity: the revised
# engine against the dense oracle bit for bit, unbudgeted and under
# MaxWork, and the float verdicts against the exact ones).
# `go test` runs only their seed corpora. A failing input is written under
# the package's testdata/fuzz/; commit it with the fix. CI runs this nightly
# and on manual dispatch (.github/workflows/ci.yml, job fuzz-nightly).
FUZZ_FLAGS = -run '^$$' -fuzztime 60s -parallel 2 -fuzzminimizetime 3s
fuzz-nightly:
	$(GO) test $(FUZZ_FLAGS) -fuzz '^FuzzDecode$$' ./internal/wspio
	$(GO) test $(FUZZ_FLAGS) -fuzz '^FuzzImportMovingAI$$' ./internal/datasets
	$(GO) test $(FUZZ_FLAGS) -fuzz '^FuzzSolveEndpoints$$' ./internal/server
	$(GO) test $(FUZZ_FLAGS) -fuzz '^FuzzRevisedParity$$' ./internal/lp

# End-to-end daemon smoke: build wspd, start it, hit /healthz, drive every
# solve endpoint once (/v1/solve, /v1/batch, a plain and a streamed
# /v1/sweep, /v1/lifelong) and require /debug/vars to count each one as
# admitted, then SIGTERM and require a drain-clean exit 0. This is the
# gate for the service's lifecycle contract (serve → answer → drain).
serve-smoke:
	$(GO) run ./scripts/servesmoke

# Scenario-corpus smoke: solve two seeded generator families under the
# default knobs, write the JSON report and its bench lines, and require
# benchjson to ingest those lines (it exits 1 when nothing parses) — the
# gate that keeps the corpus runner, the wsp-corpus-report/v3 schema, and
# the benchjson label format from drifting apart. Then run the contract
# path with every ILP knob flag set and require the report's "knobs"
# object to echo them, and require a negative budget to fail the command.
corpus-smoke:
	$(GO) run ./cmd/wsp corpus run -families stripes,rings -label corpus-smoke \
		-json /tmp/wsp-corpus-report.json -bench /tmp/wsp-corpus-bench.txt
	rm -f /tmp/wsp-corpus-trajectory.json
	$(GO) run ./scripts/benchjson -o /tmp/wsp-corpus-trajectory.json -label corpus-smoke \
		< /tmp/wsp-corpus-bench.txt
	$(GO) run ./cmd/wsp corpus run -families rings -strategy contract -exact -maxnodes 300 \
		-maxwork 400000000 -label corpus-smoke-contract -json /tmp/wsp-corpus-contract.json
	tr -d ' \n' < /tmp/wsp-corpus-contract.json | grep -q \
		'"knobs":{"strategy":"contract-ilp","exact":true,"work_budget":400000000,"node_budget":300}'
	@if $(GO) run ./cmd/wsp corpus run -maxnodes -1 >/dev/null 2>&1; then \
		echo "corpus run accepted -maxnodes -1"; exit 1; fi

# The benchmark is its own module (perfbench/go.mod, `replace repro => ../`),
# so `./...` above never builds it; vet and test it here so a change to the
# packages it imports cannot break it unseen.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# One-second run of each benchmark workload (BENCHMARK.json) through
# perfbench/run.sh, which builds the benchmark and wspd from this checkout
# under .bench_build/. Each run must end on a line reporting every pinned
# answer correct and no failed operation, so a change that moves an answer
# fails here, before the benchmark itself is run.
PERFBENCH_WORKLOADS = tablei-e2e corpus-contract wspd-open
perfbench-smoke:
	@for w in $(PERFBENCH_WORKLOADS); do \
		last=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 | tail -n 1); \
		echo "$$w: $$last"; \
		if ! echo "$$last" | grep -q '"correct":true' || ! echo "$$last" | grep -Eq '"failed":0[,}]'; then \
			echo "perfbench-smoke: $$w did not report correct with 0 failed"; exit 1; fi; \
	done

# Fail when any file needs gofmt, listing the offenders.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

ci: fmt build vet test race test-procs1 examples serve-smoke bench-smoke corpus-smoke perfbench-check perfbench-smoke
