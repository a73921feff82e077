#!/usr/bin/env bash
# Builds perfbench from the source tree it sits in and runs it with the
# given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload store-point --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and Go's temporary and config files all
# go under $CARGO_TARGET_DIR (default .bench_build) in the repository,
# so nothing is written outside it. No network is used: the module has
# no dependencies beyond the repository's own module.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/config GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
