GO ?= go

.PHONY: build test race bench bench-parallel verify repro-quick check ci fmt-check perfbench-test chaos smoke-replicas paper-oracle full-oracle

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# The concurrency gate: the parallel experiment pipeline and the
# index-sharded analysis scans must stay race-clean.
race:
	$(GO) vet ./...
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Serial-vs-parallel pipeline wall time.
bench-parallel:
	$(GO) test -bench='BenchmarkRunAll(Serial|Parallel)$$' -run=^$$ .

verify: test race

# Chaos suite: deterministic fault injection end to end. The headline
# invariant is that a chaos run under -keep-going emits byte-identical
# artifacts for every experiment the fault did not touch, plus the
# signal-handling, retry, and checkpoint-resume contracts.
chaos:
	$(GO) test -run 'TestChaos|TestCLIChaos|TestSIG|TestBuildRetry|TestBuildFails|TestCLICheckpoint|TestCheckpointResume' \
		./cmd/repro ./internal/core
	$(GO) test ./internal/fault ./internal/ckpt ./internal/replica
	$(GO) test -run 'TestSimulateCtx|TestSimulateFaultSite|TestPanicStops|TestForEachCtx' \
		./internal/cluster ./internal/par
	$(GO) test -run 'TestHealthzDegraded|TestPeerFill|TestCacheFill' ./internal/serve

# Multi-replica fleet smoke: 3 daemons over one shared checkpoint dir
# (one chaos-armed), reprobench -strict against all three, single-signal
# drain. The same contract the CI multi-replica-smoke job gates on.
smoke-replicas:
	./scripts/multi_replica_smoke.sh

# End-to-end artifact oracle: perfbench's paper-batch workload diffs
# every CLI artifact and report section against perfbench/golden/ and
# ends with one JSON line. Fail unless that line says "correct":true,
# so any simulator change that moves a byte is caught.
paper-oracle:
	@out=$$(bash perfbench/run.sh --workload paper-batch --seed 1 --seconds 1 --trace 0) || exit 1; \
	echo "$$out"; \
	echo "$$out" | tail -n 1 | grep -q '"correct":true' || { echo "paper-batch oracle: artifacts differ from perfbench/golden/"; exit 1; }

# Full-scale artifact oracle: a fresh `repro -scale full -extensions`
# run must reproduce the committed out/ (every artifact and report.md)
# byte for byte. perfbench stops at paper-batch scale; this is the
# byte-identity gate where the simulation is largest (~1.5 min, under
# 1 GB peak RSS).
full-oracle:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/repro -scale full -extensions -out "$$tmp" -markdown "$$tmp/report.md" >/dev/null && \
	diff -r out "$$tmp" && echo "full-scale oracle: out/ reproduced byte for byte"

# Fail if any file needs gofmt. Kept as its own target so both make
# check and the CI workflow gate on the exact same command.
fmt-check:
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi

# perfbench is a nested module, so the root ./... never compiles it:
# vet and test it on its own so an API change cannot break the
# benchmark unnoticed.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Full hygiene gate: formatting, vet, the race detector, the
# instrumentation-never-changes-outputs invariant, the chaos suite and
# the end-to-end artifact oracles.
check: fmt-check chaos perfbench-test
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -run 'TestInstrumentationByteIdentical|TestInstrumentationDoesNotChangeResults' \
		./cmd/repro ./internal/core
	$(GO) test -run 'TestReferencePlacementByteIdentical' ./internal/cluster
	$(MAKE) paper-oracle
	$(MAKE) full-oracle
	$(GO) test -run 'TestSketchMatchesExact|TestUsageSketchMatchesExactUsage' ./internal/stats ./internal/hostload
	$(GO) test -run 'TestMetricsExposition|TestAccessLogWritten|TestMultiReplicaSmoke' ./cmd/reprod
	$(GO) test -run 'TestColdRequestTraceChain|TestServedBytesIdenticalTraced|TestETag|TestTwoReplicas|TestLeaseTakeover' \
		./internal/serve ./internal/replica
	$(MAKE) smoke-replicas

# What .github/workflows/ci.yml runs, runnable locally so "CI is red"
# never needs a push to debug.
ci: fmt-check build test perfbench-test paper-oracle full-oracle race chaos smoke-replicas

repro-quick:
	$(GO) run ./cmd/repro -scale quick
