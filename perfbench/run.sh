#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# checkout root. Every build and run artefact goes under .bench_build/.
#
#   bash perfbench/run.sh --workload steady --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
commit=unknown
if [ -d "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
	if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
		commit="$commit-dirty"
	fi
fi
go -C "$root/perfbench" build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" "$@"
