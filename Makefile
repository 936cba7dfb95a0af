# arbloop — build/test/vet/bench entry points.

GO ?= go

.PHONY: all build test race vet lint bench bench-go bench-convex bench-delta bench-shard bench-server bench-telemetry bench-faults chaos fuzz clean

all: build vet lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Repo-native static analysis: arblint encodes the invariants this
# codebase has already paid to learn (hot-path alloc budget, key
# determinism, padded-copy, last-field, send-under-lock). Nonzero exit
# on any finding; suppressions require a reasoned //arblint:ignore.
lint:
	$(GO) run ./cmd/arblint ./...

# The scanner's concurrency contract is tested under the race detector.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Regenerate BENCH_scan.json (loops/sec at parallelism 1 vs GOMAXPROCS).
bench:
	BENCH_JSON=1 $(GO) test -run TestWriteScanBenchJSON -count=1 -v .

# Standard Go benchmarks for the scan hot path.
bench-go:
	$(GO) test -bench 'BenchmarkScan' -benchmem -run '^$$' .

# Full-vs-delta per-block scan throughput (~10% of pools trading between
# scans). Quick enough for CI.
bench-delta:
	$(GO) test -bench 'BenchmarkScan(FullWarm|Delta10pct)' -benchmem -run '^$$' .

# Sharded delta path smoke: tiny run counts, runs on every PR so the
# sharded engine compiles and stays delta-engaged.
bench-shard:
	$(GO) test -bench 'BenchmarkScanShardedDelta' -benchtime 20x -benchmem -run '^$$' .

# Report-serving smoke: the distribution tier's cached read paths
# (plain / gzip / 304 / ?top=N) plus the per-block frame build at 200
# results and at serve's 20, at the handler layer. Tiny run counts keep
# it CI-cheap; its job is to prove the encode-once frame cache stays
# engaged on every read.
bench-server:
	$(GO) test -bench 'BenchmarkServer' -benchtime 100x -benchmem -run '^$$' ./internal/server

# Telemetry guard + overhead: the instrumented steady-state delta scan
# must hold the 7-alloc budget, and full instrumentation must cost < 2%
# of scan time (plus per-primitive ns/op costs for the record).
bench-telemetry:
	BENCH_JSON=1 $(GO) test -run 'TestTelemetry(ScanAllocs|Bench)' -count=1 -v .

# Convex solver smoke: the exact solve (strategy.Convex) vs the barrier
# method (convexopt.Minimize) on the problems it stages. Tiny run counts
# keep it CI-cheap; its job is to prove the exact solve compiles and runs.
bench-convex:
	$(GO) test -bench 'BenchmarkConvex(Generic|Structured)' -benchtime 20x -benchmem -run '^$$' .

# Fault-layer zero-overhead guard: with chaos injection disabled, the
# breaker closed, and panic containment armed, the steady-state delta
# scan must hold the same 7-alloc budget as the bare pipeline.
bench-faults:
	$(GO) test -run TestFaultLayerDisabledAllocs -count=1 -v .

# Chaos soak: the full serving pipeline under a seeded fault schedule
# (injected errors, stalls, latency, corrupt payloads, strategy panics),
# under the race detector, plus the oplog crash-recovery soak (seeded
# disk faults, hard truncation at arbitrary byte offsets, replay-prefix
# and reopen-append invariants). -short keeps it CI-sized.
chaos:
	$(GO) test -race -short -run TestChaosSoak -count=1 -v ./cmd/arbloop
	$(GO) test -race -short -run TestOplogCrashSoak -count=1 -v ./internal/oplog

# Short fuzz of the AMM swap invariants and the oplog record decoder
# (CI runs this on every PR).
fuzz:
	$(GO) test -fuzz=Fuzz -fuzztime=10s ./internal/amm
	$(GO) test -fuzz=FuzzDecodeRecord -fuzztime=10s ./internal/oplog

clean:
	$(GO) clean ./...
