#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping the build output
# and every Go cache inside the checkout, under .bench_build at its root.
# The checkout is found from this script's own path. Relative paths in
# the arguments are taken from the current directory, so run it from the
# repository root:
#
#   bash bench/run.sh --workload bughunt --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare parent.jsonl change.jsonl
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/bench" build -o "$out/pctwm-bench" .
exec "$out/pctwm-bench" "$@"
