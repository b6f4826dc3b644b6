#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of this checkout and
# runs it from the checkout root. Every build output and temporary file stays in
# .bench_build/ under the checkout.
#
#   bash perfbench/run.sh --workload ppl-sweep --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
cd "$root"
exec "$build/bin/perfbench" "$@"
