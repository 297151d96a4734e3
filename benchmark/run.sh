#!/bin/sh
# run.sh builds the benchmark from the sources of this checkout and runs it
# with the given flags. Run it from the repository root:
#
#	sh benchmark/run.sh --workload gate-mixed --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and every other file the build writes stay
# under .bench_build/ in the current directory. Without the analyzer's
# sources next to benchmark/ the build fails and so does this script.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd benchmark && go build -o "$out/tdat-benchmark" .)
exec "$out/tdat-benchmark" "$@"
