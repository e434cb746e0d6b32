#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, e.g.
#
#   bash perfbench/run.sh --workload city --seed 1 --seconds 40 --trace 0
#
# Everything the build writes (binary, Go build cache, the go command's
# own config and telemetry, temporaries) stays under $CARGO_TARGET_DIR,
# default .bench_build, in the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
