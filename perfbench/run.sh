#!/usr/bin/env bash
# Builds the benchmark binary and runs it from the repository root:
#
#   bash perfbench/run.sh --workload admit-window --seed 1 --seconds 16 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the current directory: the Go build and module caches, the go
# command's configuration directory, the binaries, the stores and the
# traces.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
