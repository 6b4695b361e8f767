#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it:
#
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the build and the run write —
# the binary, Go's build cache, registries, spill files, traces — stays
# under .bench_build/ (or $CARGO_TARGET_DIR when set).
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

# XDG_CONFIG_HOME keeps the go command's own config and telemetry files in
# the build directory too.
(cd "$root/e2ebench" && XDG_CONFIG_HOME="$build/config" go build -o "$build/e2ebench" .) >&2
exec "$build/e2ebench" -workdir "$build/work" "$@"
