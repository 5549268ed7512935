#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it
# with the arguments given. Everything the build and the run write goes
# under .bench_build/ in that checkout: the Go build cache too, so that
# nothing outside the checkout is read or written.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"

export GOCACHE="$root/.bench_build/go-cache"
# No module is ever fetched: the benchmark is stdlib-only.
export GOTOOLCHAIN=local GOPROXY=off

mkdir -p .bench_build/bin
go build -o .bench_build/bin/bench ./bench
exec .bench_build/bin/bench "$@"
