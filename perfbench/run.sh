#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, temporary files, the binary, traced spans)
# stays under .bench_build/ in that root. Build output goes to standard
# error, so the last line of standard output is the run's JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gomod" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench.new" .) >&2
mv -f "$out/perfbench.new" "$out/perfbench"
exec "$out/perfbench" "$@"
