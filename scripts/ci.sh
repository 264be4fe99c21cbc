#!/bin/sh
# CI quality ladder, cheapest check first:
#   gofmt → one architecture table → vertex programs traced in one
#   package → simulator only where the paper is reproduced → one unit
#   loop in exec → no post ops outside a plan → no value staged in the
#   kernel VM → edge ids only through the out-CSR → no test-only exports
#   → vet → staticcheck →
#   tests+coverage ratchet → fuzz smoke → race suites → doc lint.
#
# Knobs:
#   FUZZ_TIME     per-target fuzz duration (default 10s; nightly uses 5m)
#   CI_SKIP_RACE  when non-empty, skip the race suites here — set by the
#                 workflow's dedicated parallel `race` job, which owns them
set -eu

cd "$(dirname "$0")/.."

FUZZ_TIME=${FUZZ_TIME:-10s}
CI_SKIP_RACE=${CI_SKIP_RACE:-}
STATICCHECK_VERSION=${STATICCHECK_VERSION:-2024.1.1}

echo "== gofmt =="
out=$(gofmt -l .)
if [ -n "$out" ]; then
	echo "gofmt needed on:"
	echo "$out"
	exit 1
fi

echo "== architectures are named in one file (internal/program/table.go) =="
out=$(grep -nE '"gcn"|"gat"|"appnp"|"rgcn"|Spec\.Arch ==' internal/program/*.go internal/serve/*.go \
	internal/shard/*.go internal/models/*.go internal/train/*.go |
	grep -v -e '_test\.go:' -e '^internal/program/table\.go:' || true)
if [ -n "$out" ]; then
	echo "architecture dispatch outside the program table:"
	echo "$out"
	exit 1
fi

# A vertex program is traced in internal/program and nowhere else, except
# for the public Session API (internal/core), the Figure 12 microbenchmark
# (internal/bench/fig12.go) and seastar-inspect's Figure-3 listings, which
# keep the paper's in-plan GCN matmul on purpose.
echo "== vertex programs are traced only in internal/program =="
out=$(grep -rn --include='*.go' 'gir\.NewBuilder' . |
	grep -v -e '_test\.go:' -e '^\./internal/program/' -e '^\./internal/core/' \
		-e '^\./internal/bench/fig12\.go:' -e '^\./cmd/seastar-inspect/build\.go:' || true)
if [ -n "$out" ]; then
	echo "gir.NewBuilder outside internal/{program,core}, internal/bench/fig12.go and cmd/seastar-inspect/build.go:"
	echo "$out"
	exit 1
fi

# The simulated GPU (internal/device) reproduces the paper's figures and
# nothing else: serving, sharding and mini-batch training compute without
# it. benchmark/ is its own module; ROADMAP item 10(e) moves its callers.
echo "== the simulated GPU is built only where the paper is reproduced =="
out=$(grep -rnE --include='*.go' 'device\.New\(|device\.NewScaled\(|\.EnableTrace\(\)' . |
	grep -v -e '_test\.go:' -e '^\./benchmark/' \
		-e '^\./internal/bench/' -e '^\./internal/core/' -e '^\./internal/device/' \
		-e '^\./cmd/seastar-train/' -e '^\./cmd/seastar-inspect/' || true)
if [ -n "$out" ]; then
	echo "simulated device built outside internal/{bench,core,device} and cmd/{seastar-train,seastar-inspect}:"
	echo "$out"
	exit 1
fi

# Training's forward and backward passes and Infer run a compiled pass
# through one unit loop (exec's Pass.run): one non-test line in
# internal/exec launches a seastar kernel, and one evaluates a dense op.
echo "== internal/exec runs every pass through one unit loop =="
for call in '\.Run(' 'denseOp('; do
	out=$(grep -n "$call" internal/exec/*.go |
		grep -v -e '_test\.go:' -e 'func denseOp(' -e ':[0-9]*:[[:space:]]*//' || true)
	if [ "$(printf '%s\n' "$out" | grep -c .)" -ne 1 ]; then
		echo "want exactly one non-test line in internal/exec calling $call, have:"
		echo "$out"
		exit 1
	fi
done

# A stage is one vertex program: its bias, self loop and activation are
# traced into its plan, so neither lowering of a program (serving's
# runner, sharded serving, the nn lowering) adds or activates a stage's
# output by hand. A stage's arithmetic is its plan plus its dense products.
echo "== a stage's arithmetic is its plan plus its dense products =="
out=$(grep -nE 'tensor\.AddRow|tensor\.Add\(|tensor\.Sigmoid|e\.AddRow\(|e\.Add\(' \
	internal/serve/*.go internal/shard/*.go internal/program/nn.go | grep -v '_test\.go:' || true)
if [ -n "$out" ]; then
	echo "post ops applied outside a stage's plan:"
	echo "$out"
	exit 1
fi

# The kernel VM reads and writes every row-stage value where it lies: a
# row leaf is its tensor row, an aggregate its accumulator, a value a row
# step materializes its output row (internal/kernels/specialize.go,
# runRowsSpec). No value is copied into a staging buffer and back out.
echo "== the kernel VM stages no value through scratch =="
out=$(grep -nE 'copy\(.*scratch\[|copy\([a-z.]*slots\[' internal/kernels/*.go | grep -v '_test\.go:' || true)
if [ -n "$out" ]; then
	echo "a value staged through a slot buffer in internal/kernels:"
	echo "$out"
	exit 1
fi

# Every graph numbers its edges by in-CSR slot: an in-walk's edge ids
# are its slots, and only the out-CSR carries an edge-id array. Outside
# internal/graph, which builds the arrays, no non-test line names
# EdgeIDs but through an out-CSR (the store maps its out-CSR section).
echo "== edge ids are read only through the out-CSR =="
out=$(grep -rnE --include='*.go' '\bEdgeIDs\b' . |
	grep -v -e '_test\.go:' -e ':[0-9]*:[[:space:]]*//' -e '^\./internal/graph/' \
		-e 'Out\.EdgeIDs' -e 'EdgeIDs: bytesI32(s\.section(secOutEids))' || true)
if [ -n "$out" ]; then
	echo "an edge-id array read from an in-CSR or an in-walk:"
	echo "$out"
	exit 1
fi

# An exported func or method that only tests call is not production code:
# it moves into its package's tests or goes. benchmark/, examples/ and
# cmd/ count as callers; scripts/test_only_exports.txt lists, with a
# reason each, the names kept anyway (public API, interface methods,
# references, shared test fixtures).
echo "== no exported func is called only by tests =="
go run ./scripts/testonly . scripts/test_only_exports.txt

echo "== go vet =="
go vet ./...

echo "== staticcheck ($STATICCHECK_VERSION) =="
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
elif go run "honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION" -version >/dev/null 2>&1; then
	go run "honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION" ./...
else
	echo "staticcheck unavailable (no binary, module fetch failed — offline?); skipping"
fi

echo "== go test (with coverage) =="
go test -coverprofile=cover.out ./...

echo "== go test (benchmark module: its own go.mod, invisible to ./... above) =="
(cd benchmark && go test ./...)

echo "== serve request, delta, shard resync, kernel VM, thin and wide GEMM, sampler, mini-batch epoch and cold store epoch micro-benchmarks, one iteration (so that they cannot rot) =="
go test -run='^$' -bench='BenchmarkServeRequest|BenchmarkDelta' -benchtime=1x ./internal/serve
go test -run='^$' -bench=BenchmarkKernelVM -benchtime=1x ./internal/kernels
go test -run='^$' -bench=BenchmarkShardSync -benchtime=1x ./internal/shard
go test -run='^$' -bench='BenchmarkThinGemm|BenchmarkWideGemm' -benchtime=1x ./internal/tensor
go test -run='^$' -bench=BenchmarkSample -benchtime=1x ./internal/sampling
go test -run='^$' -bench=BenchmarkMiniBatchEpoch -benchtime=1x ./internal/train
go test -run='^$' -bench=BenchmarkStoreEpochCold -benchtime=1x ./internal/store

echo "== coverage ratchet =="
cov=$(go tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
floor=$(cat scripts/coverage_floor.txt)
awk -v c="$cov" -v f="$floor" 'BEGIN {
	if (c + 0 < f + 0) {
		printf "coverage %.1f%% is below the floor %.1f%% (scripts/coverage_floor.txt)\n", c, f
		exit 1
	}
	printf "coverage %.1f%% (floor %.1f%%)\n", c, f
}'

echo "== fuzz smoke ($FUZZ_TIME per target) =="
go test -run='^$' -fuzz=FuzzFusionEquivalence -fuzztime="$FUZZ_TIME" ./internal/fusion
go test -run='^$' -fuzz=FuzzEdgeBalanced -fuzztime="$FUZZ_TIME" ./internal/sched
go test -run='^$' -fuzz=FuzzDeltaEquivalence -fuzztime="$FUZZ_TIME" ./internal/serve
go test -run='^$' -fuzz=FuzzPartitionInvariants -fuzztime="$FUZZ_TIME" ./internal/part
go test -run='^$' -fuzz=FuzzShardWire -fuzztime="$FUZZ_TIME" ./internal/shard
go test -run='^$' -fuzz=FuzzStoreEquivalence -fuzztime="$FUZZ_TIME" ./internal/store

if [ -n "$CI_SKIP_RACE" ]; then
	echo "== race suites skipped (CI_SKIP_RACE set; the workflow race job runs them) =="
else
	echo "== race: kernels/tensor (incl. the pool's concurrent and bound tests)/sched/nn/exec =="
	go test -race -count=1 ./internal/kernels/... ./internal/tensor/... ./internal/sched/... ./internal/nn/... ./internal/exec/...

	echo "== race: serve stress (incl. concurrent delta+infer soak) =="
	go test -race -count=1 ./internal/serve/...

	echo "== race: pipeline/train (incl. TestMiniBatchHeapFlat)/sampling/store =="
	go test -race -count=1 ./internal/pipeline/... ./internal/train/... ./internal/sampling/... ./internal/store/...

	echo "== race: sharded serving (coordinator + workers, killed-worker fault) =="
	go test -race -count=1 -run 'TestRaceSoak|TestKilledWorker|TestWorkerRestartInPlace|TestEndToEndBitwise' ./internal/shard
fi

echo "== doc lint (exported symbols need doc comments) =="
go run ./scripts/doclint ./internal/program ./internal/gir ./internal/fusion ./internal/kernels ./internal/serve ./internal/obs ./internal/exec ./internal/store ./internal/part ./internal/shard ./internal/graph

echo "== doc lint (flag docs in docs/operations.md match the binaries) =="
go run ./scripts/doclint -flags docs/operations.md ./cmd/seastar-train ./cmd/seastar-serve ./cmd/seastar-bench ./cmd/seastar-inspect ./cmd/seastar-convert

echo "CI OK"
