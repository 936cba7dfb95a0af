# arbloop — build/test/vet/bench entry points.

GO ?= go

.PHONY: all build test race vet lint bench bench-convex bench-delta bench-server chaos fuzz clean

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

# Whole-market length-4 Convex fan-out: 15 interleaved pairs of serial
# and parallel scans (BenchmarkScanConvexFanOut), failing unless the
# fastest parallel scan beats the fastest serial one. Not in CI: on a
# 2-CPU host the gain is within noise. Every other speed, share and
# allocation bar is a plain test that `make test` runs.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkScanConvexFanOut' -benchtime 15x -count=1 .

# Full-vs-delta per-block scan throughput (~10% of pools trading between
# scans), and one dirty length-4 Convex delta scan serving the top 20 and
# serving every ranked loop (ns/op and allocs/op of the index path).
# Quick enough for CI. The delta-beats-full bar is TestDeltaScanBeatsFull.
bench-delta:
	$(GO) test -bench 'BenchmarkScan(FullWarm|Delta10pct)' -benchmem -run '^$$' .
	$(GO) test -bench 'BenchmarkScanDeltaConvexLen4' -benchmem -run '^$$' ./internal/scan

# Report-serving smoke: the distribution tier's cached read paths
# (plain / gzip / 304 / ?top=N) plus the per-block frame build at 200
# results and at serve's 20, at the handler layer. Tiny run counts keep
# it CI-cheap; its job is to prove the encode-once frame cache stays
# engaged on every read. The cached-read bar is
# TestCachedReadBeatsPerRequestEncode.
bench-server:
	$(GO) test -bench 'BenchmarkServer' -benchtime 100x -benchmem -run '^$$' ./internal/server

# Convex solver smoke: the exact solve (strategy.Convex) vs the barrier
# method (convexopt.Minimize) on the problems it stages. Tiny run counts
# keep it CI-cheap; its job is to prove the exact solve compiles and runs.
# The exact-beats-barrier bar is TestConvexExactBeatsBarrier.
bench-convex:
	$(GO) test -bench 'BenchmarkConvex(Generic|Structured)' -benchtime 20x -benchmem -run '^$$' .

# Chaos soak: the full serving pipeline under a seeded fault schedule
# (injected errors, stalls, latency, corrupt payloads, strategy panics),
# under the race detector, plus the oplog crash-recovery soak (seeded
# disk faults, hard truncation at arbitrary byte offsets, replay-prefix
# and reopen-append invariants). -short keeps it CI-sized.
chaos:
	$(GO) test -race -short -run TestChaosSoak -count=1 -v ./cmd/arbloop
	$(GO) test -race -short -run TestOplogCrashSoak -count=1 -v ./internal/oplog

# Short fuzz of the AMM swap invariants, the oplog record decoder and
# the frame's append encoder against encoding/json (CI runs this on
# every PR).
fuzz:
	$(GO) test -fuzz=Fuzz -fuzztime=10s ./internal/amm
	$(GO) test -fuzz=FuzzDecodeRecord -fuzztime=10s ./internal/oplog
	$(GO) test -fuzz=FuzzFrameMatchesMarshal -fuzztime=10s ./internal/distrib

clean:
	$(GO) clean ./...
