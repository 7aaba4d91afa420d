#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it; the benchmark itself
# builds cmd/kbt. Everything built or written stays under bench/out.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out
# The go command keeps its build cache and its telemetry counters here too.
export GOCACHE="$PWD/out/gocache" XDG_CONFIG_HOME="$PWD/out/config" GOTOOLCHAIN=local
go build -o out/kbtbench .
exec out/kbtbench "$@"
