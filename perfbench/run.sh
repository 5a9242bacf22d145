#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload stream --seed 1 --seconds 10 --trace 0
# Run it from the repository root. Build outputs, the Go build cache and
# the result records all stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
[ -f perfbench/go.mod ] || { echo "run.sh: run from the repository root" >&2; exit 2; }
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
out="$out/perfbench"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd perfbench && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
