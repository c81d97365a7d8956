#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Every build artifact stays under .bench_build: the Go
# build cache, temporary files, and the go command's own configuration and
# telemetry, so the benchmark reads and writes only its checkout.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload batch-hash --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
