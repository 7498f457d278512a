#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload batch-city --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, span files) stays under $CARGO_TARGET_DIR,
# default .bench_build; the Go toolchain is kept off the network.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/perfbench/tmp" "$out/perfbench/home"

export GOCACHE="$out/perfbench/gocache"
export GOPATH="$out/perfbench/gopath"
export GOTMPDIR="$out/perfbench/tmp"
export HOME="$out/perfbench/home"
export XDG_CONFIG_HOME="$HOME/.config"
export XDG_CACHE_HOME="$HOME/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS="-mod=readonly -buildvcs=false" GOWORK=off

bin="$out/perfbench/perfbench"
(cd perfbench && go build -o "$bin" .)
exec "$bin" --out "$out/perfbench/spans" "$@"
