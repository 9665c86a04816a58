#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build/ at the
# checkout root, then runs it with the given arguments, for example:
#
#   bash perfbench/run.sh --workload cold-solve --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, temp files, the Go
# tool's configuration and telemetry, the journal directories of the booted
# stacks) stays under .bench_build/; nothing is downloaded.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp" \
	GOMODCACHE="$out/gomod" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" -root "$root" "$@"
