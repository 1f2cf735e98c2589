#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from source into
# bench/.build/, keeping the Go build cache and temporary files there too so
# that nothing is written outside the checkout, then runs the binary with the
# arguments it was given:
#
#   bash bench/run.sh --workload exec_tpch --seed 7 --seconds 10 --trace 0
#
# Where the rest of the module is missing the build fails and so does this.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod beside bench/: the benchmark builds as a package of the pdwqo module" >&2
	exit 1
fi
out="$PWD/bench/.build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
mkdir -p "$GOCACHE" "$GOTMPDIR"
go build -o "$out/benchmark" ./bench
exec "$out/benchmark" "$@"
