#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments. Every build artifact (Go build cache, temporaries,
# the binary) stays under .bench_build/ at the tree's root. Build output
# goes to stderr, so the benchmark's own JSON line stays the last line of
# stdout. Without the repository's go.mod beside perfbench/ the build
# fails and the script exits non-zero before printing any result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
commit=unknown
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	commit="$(git -C "$root" rev-parse --short HEAD)"
fi
(cd "$root/perfbench" && go build -ldflags "-X main.commit=$commit" -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
