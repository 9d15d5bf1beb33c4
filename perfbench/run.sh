#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload stencil --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --repeats 5 --out base.json
#   bash perfbench/run.sh compare base.json new.json
#
# Every build product (binary, Go build cache) stays under the build
# directory, .bench_build in the checkout unless CARGO_TARGET_DIR names
# another.
set -euo pipefail

if [[ ! -f perfbench/go.mod || ! -f go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod and perfbench/go.mod)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out="$(pwd)/$out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
