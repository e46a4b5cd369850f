#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#	bash perfbench/run.sh --workload fwd-remote --seed 1 --seconds 20 --trace 0
#
# The Go build cache and every output stay under .bench_build/ in the
# checkout. Without the repository around perfbench/ the build fails and the
# script exits non-zero before printing a result.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/typhoon-perfbench" .
exec "$out/typhoon-perfbench" -out "$out" "$@"
