#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root; arguments pass through, for example:
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
#
# Everything the build writes stays in .bench_build/ under the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/gocache" "$out/gopath" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 1
fi
exec "$out/perfbench" "$@"
