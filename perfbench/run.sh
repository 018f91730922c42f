#!/usr/bin/env bash
# Builds perfbench from source and runs it. Run it from the repository
# root; every argument is passed on:
#
#   bash perfbench/run.sh --workload sim-small --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go caches, scratch stores and spans files all stay
# under .bench_build in the current directory.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go/cache" GOMODCACHE="$build/go/mod" GOPATH="$build/go/path"
export XDG_CONFIG_HOME="$build/go/config" GOPROXY=off GOTOOLCHAIN=local
# Keep git from looking above the checkout for a repository.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"

(cd "$root/perfbench" && go build -trimpath -buildvcs=false -o "$build/perfbench" .)
rev="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$build/perfbench" -dir "$build/perfbench-run" -rev "$rev" "$@"
