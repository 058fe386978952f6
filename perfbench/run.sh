#!/usr/bin/env bash
# Builds snapshotd, w3newer and the perfbench program from the checkout
# this script sits in, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload view-hot --seed 1 --seconds 14 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache included). The last line of standard output is
# the JSON result; everything else is human-readable.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d cmd/snapshotd ] || [ ! -d cmd/w3newer ]; then
	echo "perfbench: run from a checkout of the AIDE repository (cmd/snapshotd and cmd/w3newer missing)" >&2
	exit 1
fi
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS= CGO_ENABLED=0
go build -o "$build/bin/snapshotd" ./cmd/snapshotd
go build -o "$build/bin/w3newer" ./cmd/w3newer
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/work" "$@"
