#!/usr/bin/env bash
# Builds the programs under test (cmd/repro, cmd/reprod) and the
# benchmark program (perfbench) from this checkout into .bench_build,
# then runs perfbench with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload serve-hot --seed 3 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -o "$build/bin/" ./cmd/repro ./cmd/reprod >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/work" "$@"
