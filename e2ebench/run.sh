#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload api_get_1k --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the takeover sockets stay under
# $CARGO_TARGET_DIR (default .bench_build) in the working directory.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
abs="$(cd "$out" && pwd)"

export GOCACHE="$abs/gocache" GOMODCACHE="$abs/gomodcache" GOTMPDIR="$abs/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

(cd e2ebench && go build -o "$abs/e2ebench" .) >&2

# Socket paths are limited to 108 bytes: hand the benchmark a path
# relative to the working directory when the build directory is inside it.
case "$abs" in
"$PWD"/*) dir="${abs#"$PWD"/}/run" ;;
*) dir="$abs/run" ;;
esac
exec "$abs/e2ebench" --dir "$dir" "$@"
