#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout this script lives in
# and runs it with the given arguments. Everything the build writes (Go build
# cache, temporary files, the binary) stays under .bench_build/ at the
# checkout root. Outside a full checkout the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/../.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
go build -C "$here" -o "$build/iqperf" .
exec "$build/iqperf" "$@"
