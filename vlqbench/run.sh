#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Invoke from the repository
# root:
#
#   bash vlqbench/run.sh --workload fig11-sweep --seed 1 --seconds 10 --trace 0
#
# Every build artifact, cache and temporary file stays under .bench_build/
# in the current directory.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps its settings and telemetry counters under the user
# config directory; keep those in the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go -C "$root/vlqbench" build -o "$build/vlqbench" . >&2

commit=unknown
if [ -e "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
exec "$build/vlqbench" --root "$root" --commit "$commit" "$@"
