#!/usr/bin/env bash
# Builds the wikistale benchmark from this checkout and runs it.
#
#   bash bench/run.sh --workload serve_hot --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh compare old.jsonl new.jsonl
#
# Run it from the repository root. Build caches, inputs and logs stay under
# .bench_build/ in the checkout; see bench/README.md.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/staleserve || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the root of a wikistale checkout" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -C bench -o "$build/wsbench" .
exec "$build/wsbench" "$@"
