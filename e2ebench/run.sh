#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the repository root, e.g.
#   bash e2ebench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
#   bash e2ebench/run.sh --workload all --seed 1 --seconds 10
# Build outputs, the Go build cache and span files stay in .bench_build
# under the current directory. Nothing is downloaded: the module needs
# only the standard library and the repository's own packages.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=
(cd e2ebench && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
