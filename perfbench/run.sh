#!/usr/bin/env bash
# Builds the block-to-byte benchmark harness and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload steady --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare BASE_DIR NEW_DIR
#
# The harness is its own Go module (perfbench/go.mod) that builds against
# the repository's module through a replace directive. Everything the
# build and the runs leave behind stays in .bench_build/ under the
# current directory: the Go build cache, the binary, oplog scratch
# segments and span dumps.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
