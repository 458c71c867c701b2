#!/usr/bin/env bash
# Builds the benchmark from source and runs it, writing nothing outside the
# checkout: the go tool's caches, temporary files and telemetry all go under
# .bench_build at the checkout's root, and the program runs from this
# directory so that its trace lands in benchmark/out. Arguments are passed
# to the program unchanged (see README.md).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/modcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
cd "$here"
go build -o "$build/spam-benchmark" .
exec "$build/spam-benchmark" "$@"
