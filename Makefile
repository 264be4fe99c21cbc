GO ?= go
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: all build test race race-serve race-pipeline race-delta race-shard \
	fuzz-smoke fmt vet staticcheck coverage check ci bench bench-serve bench-gemm

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
# including store-backed training over the mmap store and the heap-flat
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
	$(GO) test -run='^$$' -fuzz=FuzzShardWire -fuzztime=10s ./internal/shard
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

# The repository benchmark: every workload in a process of its own, every
# metric by name and unit (≈ 1.5 min; see benchmark/README.md).
bench:
	bash benchmark/run.sh -workload all

# One served request at a time on an idle engine, in the shapes of the
# serve-sampled and serve-embed-mixed workloads: ns/op, B/op, allocs/op;
# then one delta at a time in serve-embed-mixed's writer shape: apply and
# recompute ms, frontier rows, B/op; then one forced resync of a two-shard
# deployment: ns/op, B/op. For looking while working on the read, the
# delta or the shard exchange path; the gate is `make bench`.
bench-serve:
	$(GO) test -run='^$$' -bench=BenchmarkServeRequest -benchtime=2000x -benchmem ./internal/serve
	$(GO) test -run='^$$' -bench=BenchmarkDelta -benchtime=50x -benchmem ./internal/serve
	$(GO) test -run='^$$' -bench=BenchmarkShardSync -benchtime=50x -benchmem ./internal/shard

# The blocked GEMM at the shapes that carry the epochs: the wide products
# of train-full-gat and of a GCN-like k = 6805 layer, the thin products of
# a mini-batch step and of serving, and the serial square 1024×256×256;
# ns/op, GFLOP/s, B/op. For looking while working on internal/tensor's
# GEMM; the gate is `make bench`.
bench-gemm:
	$(GO) test -run='^$$' -bench='BenchmarkWideGemm|BenchmarkThinGemm|BenchmarkGemmBlocked256' -benchmem ./internal/tensor
