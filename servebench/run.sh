#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it; every argument
# is passed on (see README.md). Run it from the repository root:
#
#   bash servebench/run.sh --workload tail --seed 7 --seconds 15 --trace 0
#
# The Go build cache, temporary files, the go command's own config and
# telemetry files, and the binary stay under .bench_build in the working
# directory. The build never reaches the network: the module needs
# nothing beyond the repository itself.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
    XDG_CONFIG_HOME="$build/config" \
    GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$(dirname "$0")" && go build -o "$build/servebench" .)
exec "$build/servebench" "$@"
