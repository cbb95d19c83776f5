#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, keeping
# the Go build cache, the binary and the program's state under
# .bench_build/ at the checkout root. Run from the repository root:
#
#   bash benchmark/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# The benchmark is its own module (benchmark/go.mod) that builds the
# program from the parent directory; without it the build fails and the
# script exits non-zero.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry and env file inside too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
go -C benchmark build -o "$out/benchmark" .
exec "$out/benchmark" --data "$out" "$@"
