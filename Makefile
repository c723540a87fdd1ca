# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test test-race test-replan test-recovery test-serve vet lint lint-fast check-imports bench bench-plan bench-sim experiments examples repro fuzz-short clean

all: build vet lint check-imports test test-race test-serve

build:
	go build ./...

vet:
	go vet ./...

# Static analysis, full suite: `go vet` plus rbvet's determinism and
# purity invariants (see DESIGN.md "Static analysis"), including the
# escape-analysis-backed noalloc gate. Diagnostics are also written to
# rbvet.json for the CI artifact.
lint: vet
	go run ./cmd/rbvet -json rbvet.json ./...

# lint-fast skips the compiler escape-analysis pass (and with it the
# noalloc analyzer): type-checking only, for quick iteration.
lint-fast:
	go run ./cmd/rbvet -fast ./...

# Import boundary: the production run path (serve, core, pipeline, the
# rbserve command) must not depend on the chaos harness, which is a
# test-side package that generates, drives and judges scenarios.
check-imports:
	@deps=$$(go list -deps ./internal/serve ./internal/core ./internal/pipeline ./cmd/rbserve) || exit 1; \
	if echo "$$deps" | grep -qx 'repro/internal/harness'; then \
		echo 'check-imports: production packages import repro/internal/harness'; exit 1; \
	fi

test:
	go test ./...

# Race-detector pass over the packages that fan work across goroutines
# (Monte-Carlo sampling, candidate evaluation, stream derivation, the run
# pipeline, and the chaos harness's scenario fan-out).
test-race:
	go test -race -count=1 ./internal/sim ./internal/planner ./internal/stats ./internal/par ./internal/pipeline ./internal/harness

# Replanning suite: the controller's unit tests, the differential
# replan-vs-stale/zero-drift tests, and the metamorphic planner tests,
# all under the race detector.
test-replan:
	go test -race -count=1 ./internal/replan ./internal/profiler
	go test -race -count=1 ./internal/harness -run 'TestReplan|TestZeroDrift'
	go test -race -count=1 ./internal/planner -run 'TestPriceScaling|TestDeadlineTightening|TestPlanInvariant'

# Durability suite: the journal codec/backends, the exhaustive
# crash-point sweep (kill + bit-identical recovery at every journal
# offset, both backends), and the journaling-invisibility property test,
# all under the race detector.
test-recovery:
	go test -race -count=1 ./internal/journal
	go test -race -count=1 ./internal/harness -run 'TestCrashPointSweep|TestReplanScenarioJournals|TestSnapshotIntervalInvisible|TestCrashRecover|TestResumeRefuses'

# Multi-tenant control-plane suite: the arbiter/registry unit and
# property tests, the HTTP backpressure suite (429 + Retry-After, FIFO
# drain, 100+ concurrent experiments with offline replay verification),
# the slack-vs-FIFO arbiter differential, and crash recovery across
# process generations — all under the race detector (the HTTP layer is
# the one deliberately concurrent surface above the deterministic core).
# RB_HEAVY_TESTS=1 additionally runs the p99 status-latency SLO test.
test-serve:
	go test -race -count=1 ./internal/serve ./cmd/rbserve
	go test -race -count=1 ./internal/harness -run 'TestCheckFleet|TestArbitrated|TestGated|TestRunningStepwise'
	go test -race -count=1 ./internal/core -run 'TestRunMultiJobShared'
	go test -race -count=1 ./internal/executor -run 'TestStageGate'

# Bounded chaos pass for CI: a fixed scenario batch through every
# invariant oracle with replay and crash/recovery equivalence, then 30s
# of native fuzzing per target. A reported failure reproduces with
# `go run ./cmd/rbfuzz -seed S -index I`.
fuzz-short:
	go run ./cmd/rbfuzz -seed 1 -n 128
	go run ./cmd/rbfuzz -seed 1 -n 32 -crash
	go test ./internal/harness -run='^$$' -fuzz=FuzzEndToEnd -fuzztime=30s
	go test ./internal/vclock -run='^$$' -fuzz=FuzzKernelEquivalence -fuzztime=30s
	go test ./internal/harness -run='^$$' -fuzz=FuzzRecover -fuzztime=30s
	go test ./internal/journal -run='^$$' -fuzz=FuzzJournalRoundTrip -fuzztime=30s
	go test ./internal/planner -run='^$$' -fuzz=FuzzPlanElastic -fuzztime=30s

# Deterministic reproducibility harness (see tools/repro/run.sh for the
# RB_RUN_REPEATABILITY / RB_RUN_BENCH gates).
repro:
	sh tools/repro/run.sh

# Full unit + integration suite with the outputs the repo records.
record:
	go test ./... 2>&1 | tee test_output.txt
	go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

bench:
	go test -bench=. -benchmem

# Planning hot-path benchmark: sim.Estimate, planner.PlanElastic and the
# replanning decision at samples {20,100} under all three estimator
# modes, workers=1, plus the analytic fast-path rows (plan_frontier,
# replan_prescreen). Rewrites BENCH_plan.json and fails if any warm
# plan_elastic row regressed more than 25% against the committed
# baseline; the human-readable record lives in
# results/analytic_bench.md and results/estimator_bench.md.
bench-plan:
	go run ./cmd/rbbench -baseline BENCH_plan.json -out BENCH_plan.json

# Simulation-kernel scale benchmark: a 10^6-concurrent-trial fleet on
# the timer wheel (events/sec, trials held, allocs/event — the dispatch
# path must measure 0), the heap reference at comparison scale, the
# schedule+cancel cycle against a 128k backlog on both kernels, and a
# cross-kernel digest check. Emits BENCH_sim.json and exits nonzero on
# an alloc or equivalence regression; the human-readable record lives
# in results/sim_bench.md.
bench-sim:
	go run ./cmd/rbsimbench -out BENCH_sim.json

# Regenerate every paper table/figure at full size (see EXPERIMENTS.md).
experiments:
	go run ./cmd/experiments -run all

examples:
	go run ./examples/quickstart
	go run ./examples/cifar_resnet101
	go run ./examples/bert_finetune
	go run ./examples/hyperband
	go run ./examples/straggler_study
	go run ./examples/spot_market
	go run ./examples/grid_search

clean:
	go clean ./...
