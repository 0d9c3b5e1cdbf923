#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload repro --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build product (binary, Go build
# cache, span files) stays under .bench_build/ in that root; module
# downloads are disabled, so a tree that lacks the soferr module next to
# this directory fails to build and exits non-zero without a result.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
