#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash .perfbench/run.sh --workload gris-stream --seed 1 --seconds 15 --trace 0
#
# Every build and run artifact (Go build cache, binary, WAL directories,
# span files) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# The benchmark runs at the Go runtime's GC defaults, as the daemons do.
unset GOGC GOMEMLIMIT GODEBUG
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config"
(cd "$root/.perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
