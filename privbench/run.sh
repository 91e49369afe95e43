#!/usr/bin/env bash
# Builds privcountd and the privbench load generator from the checkout in
# the current directory, then runs one benchmark workload:
#
#   bash privbench/run.sh --workload query-json --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, store
# directories, span dumps) stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/privcountd || ! -f privbench/go.mod ]]; then
	echo "privbench: run from the root of a privcount checkout" >&2
	exit 2
fi
root=$(pwd -P)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS="-mod=mod -buildvcs=false" GOPROXY=off GOWORK=off

# Build output goes to stderr: the last line of stdout is the result.
go build -o "$out/privcountd" ./cmd/privcountd >&2
go -C privbench build -o "$out/privbench" . >&2
exec "$out/privbench" -server "$out/privcountd" -dir "$out" "$@"
