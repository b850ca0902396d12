#!/usr/bin/env bash
# Builds the benchmark and the daemons it launches from this checkout's
# source, then runs one workload. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload batch-cold --seed 7 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build/ (Go
# build cache included), so the run touches nothing outside the
# checkout. Build output goes to stderr; the last line of stdout is the
# result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp" "$out/run"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOENV=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

# The benchmark is a module of its own that takes the program's packages
# from the enclosing checkout; it fails to build anywhere else.
(cd "$root/perfbench" && go build -o "$out/bin/" . repro/cmd/rallocd repro/cmd/rallocproxy) >&2

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/run" "$@"
