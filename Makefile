# Developer entry points. Everything is plain `go` underneath; the
# targets just encode the common invocations.

GO ?= go

.PHONY: all build test test-cpus test-short race cover bench bench-kernel bench-pipeline bench-traffic bench-repair tune experiments paper fmt fmt-check vet lint verify-plans fuzz-smoke checkptr chaos check clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The 0-allocs and allocation-ceiling tests, repeated at GOMAXPROCS 1,
# 2 and 4: worker-pool and fan-out paths change with the core budget,
# so one pass at the host default cannot vouch for them.
test-cpus:
	$(GO) test -cpu 1,2,4 -run 'Alloc' ./internal/gf ./internal/kernel ./internal/core ./internal/repair ./internal/fault ./internal/pipeline .

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# One testing.B benchmark per paper figure plus kernel micro-benches.
bench:
	$(GO) test -bench=. -benchmem ./...

# Record the kernel-layer series: gf + kernel region benchmarks, 5 runs
# each (best sample kept), ref-vs-tiled and portable-vs-xorplan
# speedups -> BENCH_kernel.json plus a dated BENCH_history/ copy.
# Fails if any 128 KiB/8 MiB ref/tiled case drops below the 1.5x floor,
# or if no GF width reaches 2x for xorplan at a 128 KiB+ size.
bench-kernel:
	$(GO) run ./cmd/benchkernel -count 5 -o BENCH_kernel.json

# Record the streaming-pipeline series: serial loop vs pipeline at
# depths 1/2/4/8 across SD/LRC/RS, encode + rebuild, with outputs
# verified byte-identical per run -> BENCH_pipeline.json. Fails if any
# store-mode depth>=4 run is below 1.3x the serial loop's throughput.
bench-pipeline:
	$(GO) run ./cmd/benchpipeline -o BENCH_pipeline.json

# Record the simulated-traffic serving comparison: open-loop arrivals
# against a single fixed-default engine vs the autotuned engine pool,
# p50/p99/p999 request latency + aggregate GB/s -> BENCH_traffic.json.
# Fails if the pool is below 1.3x the single engine's throughput at the
# default 8-stream admission cap.
bench-traffic:
	$(GO) run ./cmd/benchpipeline -traffic -traffic-o BENCH_traffic.json

# Record the repair-planner series: minimal-read repair fractions and
# partial-vs-full decode timings per code, plus delta-parity-update
# speedups over full re-encode, with every case differential-checked
# byte-identical -> BENCH_repair.json plus a dated BENCH_history/ copy.
# Fails if an LRC single-failure repair reads more than 60% of the
# survivors, or a 128 KiB+ delta update is below 2x re-encode.
bench-repair:
	$(GO) run ./cmd/benchrepair -o BENCH_repair.json

# Calibrate (or show) this host's tuning profile.
tune:
	$(GO) run ./cmd/ppminspect -tune

# Regenerate the paper's figures at CI scale (minutes).
experiments:
	$(GO) run ./cmd/ppmbench -exp all

# Regenerate at the paper's scale: 32 MB stripes, 10 iterations, full grids.
paper:
	$(GO) run ./cmd/ppmbench -exp all -paper

# fmt rewrites in place; fmt-check only lists and fails, for CI.
fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The repository's own analyzers: hot-path allocations, goroutine error
# routing, gf region-call contracts, stats accounting, no-copy types.
lint:
	$(GO) run ./cmd/ppmlint ./...

# Symbolically prove every compiled plan in the code zoo — XOR
# programs, decode plans, repair plans and delta updaters — equal to
# their coefficient matrices, across all three kernel backends. Exits
# non-zero with an op-level diagnosis on the first unprovable plan.
verify-plans:
	$(GO) run ./cmd/ppmverify

# Short differential-fuzz burst over every fuzz target. Each target
# needs its own `go test -fuzz` invocation (the tool refuses multiple
# matches), so the list is explicit.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/gf -run=^$$ -fuzz=FuzzMulAgainstReference -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/gf -run=^$$ -fuzz=FuzzRegionOps -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/gf -run=^$$ -fuzz=FuzzFusedAgainstScalar -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/xorplan -run=^$$ -fuzz=FuzzProgramVsScalar -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/xorplan -run=^$$ -fuzz=FuzzExpandApply -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/planverify -run=^$$ -fuzz=FuzzVerifierVsDifferential -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run=^$$ -fuzz=FuzzBuildPlan -fuzztime=$(FUZZTIME)

# Pointer-safety instrumentation over the packages that sit on the
# Go/assembly boundary.
checkptr:
	$(GO) test -gcflags=all=-d=checkptr ./internal/gf ./internal/kernel ./internal/xorplan

# Fault storm: the end-to-end ppmfile chaos tests (missing disk +
# silent flip + transient errors + a permanently hung strip, recovered
# byte-identical) plus the harness chaos experiment over SD/LRC/RS.
# Every schedule spec is printed, so a failing run replays from the
# log; CHAOS_SEED varies the storm deterministically.
CHAOS_SEED ?= 1
chaos:
	$(GO) test ./cmd/ppmfile -run 'TestChaosDecodeStorm|TestScrubRebuildsMissingDisk|TestDecodeTornWriteCaught' -v
	$(GO) run ./cmd/ppmbench -exp chaos -seed $(CHAOS_SEED)

check: build fmt-check vet lint test race verify-plans

clean:
	$(GO) clean ./...
