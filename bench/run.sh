#!/usr/bin/env bash
# Builds soteriad and the benchmark from this checkout into .bench_build/
# and runs one workload. Run it from the repository root:
#
#   bash bench/run.sh --workload audit-corpus --seed 1 --seconds 15 --trace 0
#
# Every build and run artefact stays under .bench_build/, the Go build
# cache included; the builds are incremental after the first run.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/soteriad || ! -f bench/go.mod ]]; then
	echo "bench: run from the root of a Soteria source checkout" >&2
	exit 2
fi
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR" "$build/bin"
go build -buildvcs=false -o "$build/bin/soteriad" ./cmd/soteriad
(cd bench && go build -buildvcs=false -o "$build/bin/bench" .)
exec "$build/bin/bench" --soteriad "$build/bin/soteriad" --work "$build/run" --out "$build/out" "$@"
