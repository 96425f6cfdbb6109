#!/usr/bin/env bash
# Builds the benchmark and claims-node from this checkout, then runs one
# workload:
#
#   bash perfbench/run.sh --workload serve-lookup --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the root of the checkout (Go build cache included). The build happens
# before the benchmark starts, so it is never part of a measured time.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

if ! (cd "$root/perfbench" && go build -o "$out/bin/perfbench" . \
	&& go build -o "$out/bin/claims-node" repro/cmd/claims-node) >&2; then
	echo "perfbench: build failed" >&2
	exit 1
fi

cd "$root"
exec "$out/bin/perfbench" "$@"
