#!/usr/bin/env bash
# Builds the benchmark program inside the checkout (.bench_build/) and runs
# it with the given arguments. Everything go writes — build cache, temporary
# files, the binary — stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/seqtx-bench" .)
exec "$out/seqtx-bench" "$@"
