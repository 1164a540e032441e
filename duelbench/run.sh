#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it:
#
#   bash duelbench/run.sh --workload scan|walk|serve --seed N --seconds S --trace 0|1
#
# Everything the build and the run write (the Go build cache and temporary
# files, the binary, the traced runs' spans) stays under
# .bench_build/duelbench in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/duelbench"
mkdir -p "$out/spans" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off
(cd "$root/duelbench" && go build -o "$out/duelbench" .)
cd "$root"
exec "$out/duelbench" --out "$out/spans" "$@"
