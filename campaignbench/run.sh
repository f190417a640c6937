#!/usr/bin/env bash
# Builds campaignbench from this checkout and runs it with the given
# arguments. Everything the build and the runs write stays under
# .bench_build in the repository root, the Go build cache included.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOENV=off
go build -C campaignbench -o "$out/campaignbench" .
exec "$out/campaignbench" "$@"
