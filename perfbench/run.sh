#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload shm-steady --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR when set, else .bench_build).
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE=$build/gocache
export GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export GOENV=off
export GOFLAGS=
export GOPATH=$build/gopath
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" --dir "$build/perfbench-run" "$@"
