#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the checkout
# root:
#
#   bash perfbench/run.sh --workload settle --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build in the checkout; the build is offline (no module
# downloads, no toolchain switch). A failed build exits non-zero
# without printing a result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd perfbench && go build -buildvcs=false -o "$out/perfbench.bin" .)
exec "$out/perfbench.bin" "$@"
