#!/usr/bin/env bash
# Builds the FlexOS simulator benchmark from the sources of this checkout
# and runs it. Every build artifact (binary, Go build cache) stays under
# .bench_build at the checkout root.
#
#   bash perfbench/run.sh --workload sweep|iperf-bulk|redis-kv \
#       --seed <n> --seconds <s> --trace 0|1
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
