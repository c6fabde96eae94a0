GO ?= go

.PHONY: all vet build test race chaos obs exec reconcile systables serving perfbench check bench bench-all

all: check

# Default gate: vet + build + tests, then the full suite under the race
# detector (the scan pipeline is concurrent; races are tier-1 failures).
check: vet build test race

# go vet, then gofmt: any file gofmt would change fails the build.
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full suite under the race detector.
race:
	$(GO) test -race ./...

# Chaos smoke: the deterministic fault drill (load + query stream +
# node kill + revive under injected shared-storage faults) plus the
# resilience layer's unit tests, race-checked.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestQueryDeadlinePropagates|TestCacheBreakerDegradesToSharedStorage' ./internal/core/
	$(GO) test -race -count=1 ./internal/resilience/ ./internal/objstore/ ./internal/netsim/

# Observability gate: the metrics/tracing package under the race
# detector (registry and span counters are written concurrently), then
# without it so the disabled-tracer zero-allocation test actually runs
# (it skips under -race, which inflates allocation counts).
obs:
	$(GO) test -race -count=1 ./internal/obs/
	$(GO) test -count=1 -run 'TestDisabledTracerZeroAlloc' ./internal/obs/
	$(GO) test -race -count=1 -run 'TestSlowQuery|TestResetStats' ./internal/core/ ./internal/objstore/

# Streaming-executor gate: the streaming-vs-materialized differential
# over the full workload, the LIMIT pushdown / early-termination and
# memory-budget spill tests, and the cancellation leak check — all
# race-checked (the pipeline is goroutines connected by channels) —
# plus the operator and fan-out helper unit tests.
exec:
	$(GO) test -race -count=1 -run 'TestStreaming|TestLimitPushdown|TestQueryMemoryBudget' ./internal/experiments/
	$(GO) test -race -count=1 ./internal/exec/ ./internal/parallel/

# Reconciler gate: the spare lifecycle and RemoveNode regression tests,
# the membership-churn soak, the full reconcile package (all
# race-checked — membership changes race the query stream by design),
# then the chaos-recovery experiment without the race detector so its
# recovery timings stay meaningful.
reconcile:
	$(GO) test -race -count=1 -run 'TestSpare|TestRemoveNode|TestSoakMembershipChurn' ./internal/core/
	$(GO) test -race -count=1 ./internal/reconcile/
	$(GO) test -count=1 -run 'TestChaosRecovery' -timeout 300s ./internal/experiments/

# System-table gate: the virtual-table layer and Data Collector unit
# tests, the v_monitor fill/differential tests, and the chaos liveness
# drill — all race-checked (virtual scans read state that the load,
# tuple-mover and reconcile paths mutate concurrently). Then the
# DC-overhead gate (emit cost <=3% vs a disabled collector; env-guarded
# so plain `go test ./...` stays deterministic) and the on/off
# benchmark into BENCH_systables.json.
systables:
	$(GO) test -race -count=1 ./internal/systable/
	$(GO) test -race -count=1 -run 'TestVMonitor|TestSessionRing|TestSlowQueryExecStats|TestDisableDataCollector|TestSubclusterGauges|TestReconcileStatusProvider' ./internal/core/
	$(GO) test -race -count=1 -run 'TestSystemTables' -timeout 300s ./internal/experiments/
	EON_DC_GATE=1 $(GO) test -count=1 -run 'TestDCOverheadGate' .
	$(GO) test -json -bench 'BenchmarkDCOverhead' -benchmem -benchtime=20x -run '^$$' . > BENCH_systables.json
	@grep -oE '"Output":"[^"]*"' BENCH_systables.json \
		| sed 's/"Output":"//; s/"$$//; s/\\t/ /g; s/\\n//' \
		| awk '/^Benchmark/ && !/ns\/op/ {name=$$1; next} /ns\/op/ {if ($$0 ~ /^Benchmark/) print; else printf "%s %s\n", name, $$0}'
	@echo "wrote BENCH_systables.json"

# Serving-path gate: the staged-lifecycle unit tests (plan cache,
# prepared statements, result-cache invalidation, admission control,
# parse-error accounting) and the caches-on-vs-off TPC-H differential
# under concurrent DDL/load/mergeout churn — all race-checked (cached
# plans are shared by concurrent executions by design). Then the
# acceptance gate (warm hot-query throughput >=2x uncached, admission
# p99 bounded past the concurrency cap; env-guarded so plain
# `go test ./...` stays deterministic) and the throughput/latency
# benchmark into BENCH_serving.json.
serving:
	$(GO) test -race -count=1 -run 'TestPlanCache|TestPrepared|TestQueryArgs|TestParseError|TestResultCache|TestAdmission|TestSessionTimeout|TestServingSystem' ./internal/core/
	$(GO) test -race -count=1 -run 'TestServingCachesDifferential' -timeout 600s ./internal/experiments/
	EON_SERVING_GATE=1 $(GO) test -count=1 -run 'TestServingGate' -timeout 300s .
	$(GO) test -json -bench 'BenchmarkServingThroughput' -benchtime=1x -run '^$$' . > BENCH_serving.json
	@grep -oE '"Output":"[^"]*"' BENCH_serving.json \
		| sed 's/"Output":"//; s/"$$//; s/\\t/ /g; s/\\n//' \
		| awk '/^Benchmark/ && !/ns\/op/ {name=$$1; next} /ns\/op/ {if ($$0 ~ /^Benchmark/) print; else printf "%s %s\n", name, $$0}'
	@echo "wrote BENCH_serving.json"

# Benchmark-of-record tests: the perfbench module's unit tests and its
# end-to-end oracle smoke run, in the offline environment perfbench/run.sh
# builds with.
perfbench:
	cd perfbench && GOFLAGS=-mod=mod GOPROXY=off GOWORK=off $(GO) test -count=1 ./...

# Fig-10 plus the ScanConcurrency sweep (cold/warm caches), with
# allocation stats; the raw `go test -json` event stream is kept in
# BENCH_scan.json for later comparison. The vectorized-vs-row kernel
# comparison runs separately into BENCH_query.json.
bench:
	$(GO) test -json -bench 'BenchmarkFig10_TPCH|BenchmarkScanParallelism' -benchmem -benchtime=1x -run '^$$' . > BENCH_scan.json
	@grep -oE '"Output":"[^"]*"' BENCH_scan.json \
		| sed 's/"Output":"//; s/"$$//; s/\\t/ /g; s/\\n//' \
		| awk '/^Benchmark/ && !/ns\/op/ {name=$$1; next} /ns\/op/ {if ($$0 ~ /^Benchmark/) print; else printf "%s %s\n", name, $$0}'
	@echo "wrote BENCH_scan.json"
	$(GO) test -json -bench 'BenchmarkQueryKernels' -benchmem -benchtime=10x -run '^$$' . > BENCH_query.json
	@grep -oE '"Output":"[^"]*"' BENCH_query.json \
		| sed 's/"Output":"//; s/"$$//; s/\\t/ /g; s/\\n//' \
		| awk '/^Benchmark/ && !/ns\/op/ {name=$$1; next} /ns\/op/ {if ($$0 ~ /^Benchmark/) print; else printf "%s %s\n", name, $$0}'
	@echo "wrote BENCH_query.json"
	$(GO) test -json -bench 'BenchmarkTracingOverhead' -benchmem -benchtime=10x -run '^$$' . > BENCH_obs.json
	@grep -oE '"Output":"[^"]*"' BENCH_obs.json \
		| sed 's/"Output":"//; s/"$$//; s/\\t/ /g; s/\\n//' \
		| awk '/^Benchmark/ && !/ns\/op/ {name=$$1; next} /ns\/op/ {if ($$0 ~ /^Benchmark/) print; else printf "%s %s\n", name, $$0}'
	@echo "wrote BENCH_obs.json"
	$(GO) test -json -bench 'BenchmarkStreamingExec' -benchmem -benchtime=5x -run '^$$' . > BENCH_exec.json
	@grep -oE '"Output":"[^"]*"' BENCH_exec.json \
		| sed 's/"Output":"//; s/"$$//; s/\\t/ /g; s/\\n//' \
		| awk '/^Benchmark/ && !/ns\/op/ {name=$$1; next} /ns\/op/ {if ($$0 ~ /^Benchmark/) print; else printf "%s %s\n", name, $$0}'
	@echo "wrote BENCH_exec.json"
	$(GO) test -json -bench 'BenchmarkReconcileRecovery' -benchtime=1x -run '^$$' -timeout 600s . > BENCH_reconcile.json
	@grep -oE '"Output":"[^"]*"' BENCH_reconcile.json \
		| sed 's/"Output":"//; s/"$$//; s/\\t/ /g; s/\\n//' \
		| awk '/^Benchmark/ && !/ns\/op/ {name=$$1; next} /ns\/op/ {if ($$0 ~ /^Benchmark/) print; else printf "%s %s\n", name, $$0}'
	@echo "wrote BENCH_reconcile.json"

# Every benchmark in the repository (figures + ablations).
bench-all:
	$(GO) test -bench=. -benchtime=1x -run '^$$' .
