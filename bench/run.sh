#!/usr/bin/env bash
# The benchmark's entry point (BENCHMARK.json "command"): builds ddbench from
# the checkout's own source and runs it with the driver's arguments,
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Everything the build writes — binary, Go build cache, temporaries — stays
# under .bench_build/ in the checkout. The first build in a fresh checkout
# compiles the standard library too (about a minute on two cores); later
# runs find everything cached.
set -euo pipefail
cd "$(dirname "$0")/.."

build=".bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$PWD/$build/gocache" GOPATH="$PWD/$build/gopath" GOTMPDIR="$PWD/$build/tmp"
export GOTOOLCHAIN=local

# Stamp the commit into the binary only where there is a repository to ask;
# the driver's checkout has none, and a stray .git further up must not fail
# the build.
vcs=false
[ -e .git ] && vcs=auto

go build -buildvcs="$vcs" -o "$build/ddbench" ./bench/ddbench
exec "$build/ddbench" "$@"
