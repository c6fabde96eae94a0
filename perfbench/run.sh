#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from,
# then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload tpch-warm --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the toolchain's temporary and configuration files stay inside the
# checkout, under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp" "$out/config"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
