GO ?= go
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: all build test race race-serve race-pipeline race-delta race-shard \
	fuzz-smoke fmt vet staticcheck coverage check ci bench-kernels \
	bench-pipeline bench-gemm bench-serve bench-delta bench-shard \
	bench-oocore oocore-smoke profile-kernels bench-check

all: check

build:
	$(GO) build ./...

# benchmark/ is its own module (the driver builds it from its own go.mod),
# so `go test ./...` at the root neither builds nor tests it.
test: build
	$(GO) vet ./...
	$(GO) test ./...
	cd benchmark && $(GO) test ./...
	$(MAKE) fuzz-smoke

# Race-check the concurrency-bearing packages: the scheduler, the kernel
# engine that dispatches onto it, the tensor ops it parallelizes, and the
# tensor pool with the engine and runtime that draw from it.
race:
	$(GO) test -race -count=1 ./internal/kernels/... ./internal/tensor/... ./internal/sched/... ./internal/nn/... ./internal/exec/...

# Race-check the serving layer, including the 64-goroutine mixed
# cold/warm stress test with concurrent graph swaps.
race-serve:
	$(GO) test -race -count=1 ./internal/serve/...

# Race-check the mini-batch training pipeline and its feeding layers,
# including the mmap store's concurrent prefetcher and the heap-flat
# regression test (TestMiniBatchHeapFlat).
race-pipeline:
	$(GO) test -race -count=1 ./internal/pipeline/... ./internal/train/... ./internal/sampling/... ./internal/store/...

# Race-check the graph-delta path specifically: the concurrent
# delta+infer soak (readers sampling logits while a writer applies a
# delta chain), the delta/swap generation race, and the delta chains.
race-delta:
	$(GO) test -race -count=1 -run 'TestDelta|TestEngineDelta|TestHTTPDelta' ./internal/serve

# Race-check the sharded serving stack: a coordinator fronting in-process
# HTTP workers under concurrent infer load, with a worker killed and
# rescheduled mid-soak, plus the end-to-end bitwise equivalence sweep.
race-shard:
	$(GO) test -race -count=1 -run 'TestRaceSoak|TestKilledWorker|TestWorkerRestartInPlace|TestEndToEndBitwise' ./internal/shard

# Short randomized runs of the native fuzz targets; regressions land in
# testdata/fuzz and then run on every plain `go test`.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzFusionEquivalence -fuzztime=10s ./internal/fusion
	$(GO) test -run='^$$' -fuzz=FuzzEdgeBalanced -fuzztime=10s ./internal/sched
	$(GO) test -run='^$$' -fuzz=FuzzPartitionInvariants -fuzztime=10s ./internal/part
	$(GO) test -run='^$$' -fuzz=FuzzDeltaEquivalence -fuzztime=10s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzStoreEquivalence -fuzztime=10s ./internal/store

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Pinned staticcheck via the module proxy; falls back to a PATH binary.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	fi

# Coverage with the ratchet floor from scripts/coverage_floor.txt.
coverage:
	$(GO) test -coverprofile=cover.out ./...
	@cov=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	floor=$$(cat scripts/coverage_floor.txt); \
	awk -v c="$$cov" -v f="$$floor" 'BEGIN { \
		if (c + 0 < f + 0) { printf "coverage %.1f%% below floor %.1f%%\n", c, f; exit 1 } \
		printf "coverage %.1f%% (floor %.1f%%)\n", c, f }'

check: fmt vet test race race-serve race-pipeline race-delta race-shard

ci:
	./scripts/ci.sh

# Regenerate BENCH_kernels.json (CPU kernel-engine microbenchmark).
bench-kernels:
	$(GO) run ./cmd/seastar-bench -exp kernels -kernels-out BENCH_kernels.json

# Regenerate BENCH_pipeline.json (mini-batch pipeline overlap benchmark,
# including the adaptive re-planning evidence the CI gate reads).
bench-pipeline:
	$(GO) run ./cmd/seastar-bench -exp pipeline -pipeline-out BENCH_pipeline.json -adapt-vertices 100000 -adapt-epochs 60 -adapt-explore 5

# Regenerate BENCH_gemm.json (blocked GEMM + tiled aggregation benchmark).
bench-gemm:
	$(GO) run ./cmd/seastar-bench -exp gemm -gemm-out BENCH_gemm.json

# Regenerate BENCH_serve.json (adaptive micro-batch re-planning under
# saturating load — the committed evidence the adaptive CI gate reads).
# Runs for a minute-plus: the tuner needs measurement windows that
# dominate per-request latency on a 100k-vertex graph.
bench-serve:
	$(GO) run ./cmd/seastar-bench -exp serve -serve-out BENCH_serve.json

# Regenerate BENCH_delta.json (incremental k-hop recompute vs full
# forward and rebuild-from-scratch on a power-law delta stream — the
# committed evidence the delta CI gate reads). Each delta pays a full
# rebuild baseline on a 100k-vertex graph, so this takes ~10s.
bench-delta:
	$(GO) run ./cmd/seastar-bench -exp delta -delta-out BENCH_delta.json

# Regenerate BENCH_shard.json (edge-balanced vertex-cut partitioning +
# sharded serving vs single-process — the committed evidence the shard
# CI gate reads). Deploys 4 workers + a single-shard baseline in-process
# on a 100k-vertex graph, so this takes ~1 min.
bench-shard:
	$(GO) run ./cmd/seastar-bench -exp shard -shard-out BENCH_shard.json

# Regenerate BENCH_oocore.json (mmap-backed store vs in-memory training —
# the committed evidence the oocore CI gate reads). Converts a 150k-vertex
# graph to a store file and trains two epochs each way, so this takes ~10s.
bench-oocore:
	$(GO) run ./cmd/seastar-bench -exp oocore -oocore-out BENCH_oocore.json

# Run the oocore bench under a cgroup-v2 memory cap when the host allows
# it (model-only fallback otherwise). Does not overwrite the committed JSON.
oocore-smoke:
	./scripts/oocore_smoke.sh

# CPU-profile the kernel and gemm benchmarks for go tool pprof.
profile-kernels:
	$(GO) run ./cmd/seastar-bench -exp kernels -exp gemm -cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "inspect with: go tool pprof cpu.pprof"

# Fail if the modeled benchmark speedups regress vs the committed JSON.
bench-check:
	$(GO) run ./scripts -kernels BENCH_kernels.json -pipeline BENCH_pipeline.json -gemm BENCH_gemm.json -fused BENCH_fused.json -serve BENCH_serve.json -delta BENCH_delta.json -shard BENCH_shard.json -oocore BENCH_oocore.json
