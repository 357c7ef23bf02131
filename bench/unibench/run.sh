#!/usr/bin/env bash
# Builds unibench from source and runs it with the given flags, e.g.
#
#   bash bench/unibench/run.sh --workload hosp-10k --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every temporary file (trace files
# included) stay under .bench_build/ at the repository root. Building needs
# no network: the module's only dependency is the repository itself.
set -euo pipefail
root=$(cd "$(dirname "$0")/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/bench/unibench" && go build -o "$out/unibench" .)
cd "$root"
exec "$out/unibench" "$@"
