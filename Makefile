# CI entry points for the chase & backchase optimizer.
#
#   make ci         - everything a regression gate needs: vet, the
#                     serving gates' -run pattern check (gate-patterns),
#                     build, the full test suite, a race-detector pass
#                     over the concurrency-heavy packages, and a
#                     one-iteration benchmark smoke so the benchmark
#                     harness itself cannot rot.
#   make gate-patterns - fail when an alternative of a serve-* target's
#                     -run pattern matches no test (a renamed test would
#                     otherwise leave its gate silently empty).
#   make test       - fast feedback: plain test run, no race detector.
#   make race       - race-detector run of the concurrency-heavy packages
#                     (the parallel backchase engine and everything it
#                     shares state with), not the whole module.
#   make cover      - coverage profile over internal/... with a floor:
#                     fails below $(COVER_FLOOR)%.
#   make bench      - the real benchmark sweep (longer).
#   make bench-json - run the experiments and write $(BENCH_JSON), the
#                     machine-readable perf trajectory CI archives.
#   make bench-check - regenerate $(BENCH_JSON) at parallelism 1 and gate
#                     it against the committed BENCH_BASELINE.json:
#                     fails on >10% growth of any *_states metric or any
#                     cheapest-cost change (see cmd/benchcheck). After an
#                     intentional search change, regenerate the baseline
#                     with make bench-baseline and commit it.
#   make bench-exec - run the E18 measured-execution experiment at the
#                     CI data tier ($(EXEC_ROWS) fact rows) under a hard
#                     wall-clock timeout; E18 hard-fails unless the
#                     optimizer's delivered plan beats the baseline with
#                     an identical result set. Nightly tiers: run with
#                     EXEC_ROWS=1000000 (or 10000000) and a larger
#                     EXEC_TIMEOUT.
#   make lint-docs  - godoc gate: cmd/lintdoc (a dependency-free
#                     equivalent of revive's "exported" rule) over the
#                     packages whose exported API is documented
#                     contractually (engine, service, core, cost,
#                     greedy).
#   make serve-load - race-instrumented serving gate: the 16-worker load
#                     harnesses (plan-only and end-to-end /query) plus
#                     the singleflight storm/cancellation suites and the
#                     query-execution suites (instance hot-swap race,
#                     mid-stream cancellation leak check, exec-error
#                     surfacing), in -short mode so CI pays minutes,
#                     not tens of minutes.
#   make serve-cold - race-instrumented two-tier serving gate: E20's
#                     cold-shape replay (greedy tier, detached upgrade,
#                     differential checks) plus the tier/singleflight
#                     detachment suites and the percentile and greedy
#                     planner unit tests. Not -short: the cold replay
#                     IS the gate.
#   make serve-adaptive - race-instrumented adaptive-promotion gate:
#                     E21's three-phase predictor replay (train cold,
#                     serve trained with zero budgeted waits) plus the
#                     latency-predictor and histogram unit suites and
#                     the cnbd tier_reason / metrics-ordering handler
#                     tests. Not -short: the trained replay IS the
#                     gate.
#   make serve-smoke - build cnbd, start it, optimize the ProjDept
#                     example twice over HTTP (the second round must be
#                     a plan-cache hit), install a generated instance
#                     and query it end to end (rows must come back),
#                     install a stats snapshot, and shut it down. Fails
#                     on any error response.
#
# Set GOFLAGS=-short to skip the slow paths: experiment tests skip
# themselves and bench-smoke becomes a no-op.

GO ?= go
COVER_FLOOR ?= 70
BENCH_JSON ?= BENCH_PR3.json
BENCH_BASELINE ?= BENCH_BASELINE.json
# State counts of the cost-bounded search are deterministic only for a
# serial run; the gate always measures at parallelism 1.
BENCH_GATE_FLAGS = -parallelism 1

# The -run patterns of the race-instrumented serving gates (serve-load,
# serve-cold, serve-adaptive) and the packages they select from;
# gate-patterns checks every alternative against the tests that exist.
SERVE_PKGS = ./internal/bench ./internal/service ./cmd/cnbd
SERVE_LOAD_RUN = TestServiceLoadHarness|TestQueryLoadHarness|TestRunQueryLoad|TestSingleflight|TestAlphaRenamed|TestWaiterCancellation|TestLastCallerCancellation|TestSetStats|TestStatsSwap|TestQuery|TestInstallInstance
SERVE_COLD_RUN = TestE20ColdTiered|TestTiered|TestDetachedFlight|TestWarmShape|TestPercentile|TestTieredOptimizeEndToEnd
SERVE_ADAPTIVE_RUN = TestE21Adaptive|TestPredictor|TestClassify|TestFastPlan|TestPredicted|TestSynchronousReason|TestHistogram|TestServiceHistograms|TestQueryHistograms|TestMetricsKeyOrder|TestOptimizeTierReason|TestMetricsHistResetOnScrape

# The packages whose tests exercise shared mutable state across
# goroutines: the worker-pool backchase engine, the chase it drives
# concurrently, the congruence closures cloned across workers, the
# optimizer that parallelizes both, and the serving layer that coalesces
# concurrent requests over all of them. core rides along for the
# canonicalization property/stress suite that every concurrent cache key
# depends on.
RACE_PKGS = ./internal/backchase/... ./internal/chase/... ./internal/congruence/... ./internal/optimizer/... ./internal/service/... ./internal/core/...

# Where serve-smoke binds its throwaway server.
CNBD_ADDR ?= 127.0.0.1:18343

# E18 data tier and wall-clock ceiling for bench-exec. The CI tier is
# 10^5 fact rows; nightly runs override both.
EXEC_ROWS ?= 100000
EXEC_TIMEOUT ?= 600

.PHONY: ci vet gate-patterns build test race bench-smoke bench bench-json bench-check bench-baseline bench-exec lint-docs cover serve-load serve-cold serve-adaptive serve-smoke

ci: vet gate-patterns build test race bench-smoke

vet:
	$(GO) vet ./...

# A -run alternative that matches nothing still passes, so a test
# renamed out from under a serving gate would empty it silently. List
# the tests of the gates' packages once and fail on any alternative of
# their patterns that names none of them (-run matches unanchored, as
# grep does).
gate-patterns:
	@list=$$($(GO) test -list . $(SERVE_PKGS)) || exit 1; \
	status=0; \
	for alt in $$(echo '$(SERVE_LOAD_RUN)|$(SERVE_COLD_RUN)|$(SERVE_ADAPTIVE_RUN)' | tr '|' ' '); do \
		echo "$$list" | grep -v '^ok ' | grep -q -- "$$alt" || { \
			echo "gate-patterns: -run alternative $$alt matches no test in $(SERVE_PKGS)" >&2; status=1; }; \
	done; \
	[ $$status = 0 ] && echo "gate-patterns: every serving-gate alternative matches a test"; \
	exit $$status

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Skipped under GOFLAGS=-short: a docs-only or fast-lane run should not
# pay for compiling and executing every benchmark.
bench-smoke:
ifneq (,$(findstring -short,$(GOFLAGS)))
	@echo "bench-smoke: skipped (GOFLAGS contains -short)"
else
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
endif

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

bench-json:
	$(GO) run ./cmd/chasebench -json-out $(BENCH_JSON)

bench-check:
	$(GO) run ./cmd/chasebench $(BENCH_GATE_FLAGS) -json-out $(BENCH_JSON)
	$(GO) run ./cmd/benchcheck -baseline $(BENCH_BASELINE) -current $(BENCH_JSON)

bench-baseline:
	$(GO) run ./cmd/chasebench $(BENCH_GATE_FLAGS) -json-out $(BENCH_BASELINE)

# Measured execution at data scale: E18 hard-fails internally when the
# optimized plan does not beat the baseline or the result sets differ,
# so the target needs no output parsing — only a timeout so a pipeline
# stall cannot hang CI. The binary is prebuilt so the timeout budget is
# spent executing, not compiling.
bench-exec:
	@mkdir -p bin
	$(GO) build -o bin/chasebench ./cmd/chasebench
	timeout $(EXEC_TIMEOUT) ./bin/chasebench -exp E18 -parallelism 1 -exec-rows $(EXEC_ROWS)

# Godoc gate over the contractually documented packages. Runs in CI's
# lint job next to staticcheck; the tool is in-repo because the gate
# cannot install third-party linters.
lint-docs:
	$(GO) run ./cmd/lintdoc ./internal/engine ./internal/service ./internal/core ./internal/cost ./internal/greedy

# The CI service-load gate: the closed-loop load harnesses (16 workers
# replaying the star/snowflake mix against one Service, plan-only and
# end-to-end through Service.Query) and the singleflight/cancellation
# and query-execution suites, all under the race detector. -short keeps
# the race-instrumented run to a few hundred requests.
serve-load:
	$(GO) test -race -short -count=1 \
		-run '$(SERVE_LOAD_RUN)' $(SERVE_PKGS)

# The CI two-tier serving gate: the E20 cold-shape replay (not -short —
# the three cold backchases are the point) plus the tiering, detachment
# and degenerate-percentile suites, all race-instrumented, and the
# greedy planner package's full suite including its differential check
# against eval.
serve-cold:
	$(GO) test -race -count=1 \
		-run '$(SERVE_COLD_RUN)' $(SERVE_PKGS)
	$(GO) test -race -count=1 ./internal/greedy

# The CI adaptive-promotion gate: the E21 replay (not -short — the cold
# training pass and the zero-wait trained pass are the point) plus the
# predictor edge-case suite (cold start, EWMA rules, abandoned-flight
# training, eviction, stats-swap invalidation), the histogram suites,
# and the cnbd handler tests that pin tier_reason and the /metrics key
# order, all race-instrumented.
serve-adaptive:
	$(GO) test -race -count=1 \
		-run '$(SERVE_ADAPTIVE_RUN)' $(SERVE_PKGS)

# End-to-end smoke of the cnbd server: start it, run the example client
# (two optimize rounds — the second must be served from the plan cache —
# then an instance install and two /query rounds that must return rows,
# then a metrics dump), install a statistics snapshot, and stop it.
serve-smoke:
	@mkdir -p bin
	$(GO) build -o bin/cnbd ./cmd/cnbd
	@set -e; \
	./bin/cnbd -addr $(CNBD_ADDR) & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	ok=0; \
	for i in $$(seq 1 50); do \
		if curl -sf http://$(CNBD_ADDR)/healthz >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.2; \
	done; \
	[ "$$ok" = 1 ] || { echo "serve-smoke: cnbd did not come up" >&2; exit 1; }; \
	$(GO) run ./examples/cnbdclient -addr http://$(CNBD_ADDR) | tee bin/serve-smoke.out; \
	grep -q '"cache_hit": true' bin/serve-smoke.out || { echo "serve-smoke: second round was not a cache hit" >&2; exit 1; }; \
	grep -q '"installed": true' bin/serve-smoke.out || { echo "serve-smoke: instance install did not succeed" >&2; exit 1; }; \
	grep -q '"result_rows"' bin/serve-smoke.out || { echo "serve-smoke: /query returned no result accounting" >&2; exit 1; }; \
	curl -sf -X POST -d '{"Card":{"Proj":5000}}' http://$(CNBD_ADDR)/stats >/dev/null; \
	curl -sf http://$(CNBD_ADDR)/metrics >/dev/null; \
	echo "serve-smoke: OK"

cover:
	$(GO) test -coverprofile=coverage.out ./internal/...
	@$(GO) tool cover -func=coverage.out | tail -n 1
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	awk -v t="$$total" -v floor="$(COVER_FLOOR)" 'BEGIN { \
		if (t + 0 < floor + 0) { printf "coverage %.1f%% is below the %s%% floor\n", t, floor; exit 1 } \
		printf "coverage %.1f%% meets the %s%% floor\n", t, floor }'
