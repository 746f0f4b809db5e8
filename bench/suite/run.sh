#!/bin/sh
# Build the benchmark from source in this checkout and run it; arguments
# pass through to citus_bench (see README.md). Run from anywhere: the
# checkout root is found from this script's location.
set -e
cd "$(dirname "$0")/../.."
dune build --root . --cache=disabled --display=quiet ./bench/suite/citus_bench.exe 1>&2
exec ./_build/default/bench/suite/citus_bench.exe "$@"
