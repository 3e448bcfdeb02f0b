#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs it
# there: bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the binary, the Go build cache, the compiler's temporary
# files, the run's sockets and shm segments.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f go.mod ] || [ ! -d internal ]; then
    echo "bench/run.sh: $PWD is not a checkout of the repository; the benchmark builds against its packages" >&2
    exit 2
fi
build=$PWD/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
