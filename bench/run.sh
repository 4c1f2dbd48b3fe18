#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given flags. Run it from the repository root:
#
#   bash bench/run.sh                                  # all four workloads
#   bash bench/run.sh -workload matrix -seed 2         # one workload
#
# The Go build cache, module cache and the go command's own configuration
# live under .bench_build/ too, so a run writes nothing outside the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -C bench -buildvcs=false -o "$build/bench" .

commit=unknown
if [ -d .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
BENCH_COMMIT="$commit" exec "$build/bench" "$@"
