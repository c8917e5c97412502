#!/usr/bin/env bash
# Builds the harness from source into .bench_build/ at the checkout root and
# runs it. Everything the Go toolchain and the harness write (build cache,
# temp files, WAL data dirs) stays under .bench_build/; traces and reports go
# to benchmark/out/. No make, no prebuilt bin/, no network.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export TMPDIR="$build/tmp"
(
	cd "$here"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
		GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
		GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
		go build -o "$build/dmwbench" . >&2
)
exec "$build/dmwbench" -out "$here/out" "$@"
