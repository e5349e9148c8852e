#!/usr/bin/env bash
# Builds the loopback-HTTP benchmark from the checkout it sits in and
# runs it with the given arguments, e.g.
#
#   bash loadbench/run.sh --workload mixed-durable --seed 1 --seconds 50 --trace 0
#
# Run it from the repository root.  The binary, the Go build cache and
# every file the benchmark writes stay under .bench_build/ there.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/loadbench" build -o "$out/loadbench" .
exec "$out/loadbench" -dir "$out" "$@"
