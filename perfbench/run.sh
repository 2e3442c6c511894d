#!/usr/bin/env bash
# Builds perfbench from source into .bench_build/ under the current
# directory (the repository root) and runs it with the given arguments:
#   bash perfbench/run.sh --workload warm-plan --seed 1 --seconds 12 --trace 0
# Every Go cache and config directory is kept inside .bench_build/, and
# no module download is attempted. The build needs the repository's
# go.mod next to this directory; without it the script fails before
# printing any result.
set -euo pipefail
root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
