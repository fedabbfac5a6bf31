#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through (--workload, --seed, --seconds, --trace). Run it from the
# repository root. The Go build cache and all run output stay under
# .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-path" "$build/config" "$build/bin"

export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/go-path" \
	GOMODCACHE="$build/go-path/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" ./cmd/perfbench) >&2
exec "$build/bin/perfbench" "$@"
