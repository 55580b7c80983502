#!/usr/bin/env bash
# Builds the paper-scale benchmark from the source in this checkout and
# runs it with the given arguments (--workload, --seed, --seconds,
# --trace). Run from the root of the repository. Every file the build and
# the run write stays under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd cmd/perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
