#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#   bash perfbench/run.sh --workload paper-write --seed 42 --seconds 15 --trace 0
# Everything the build writes (binary, Go build cache) goes under
# .bench_build/ at the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
