#!/usr/bin/env bash
# Builds hrdm-server and the load generator from this checkout into
# .bench_build, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload point_lookup --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/bin/" . repro/cmd/hrdm-server)
exec "$out/bin/perfbench" --server "$out/bin/hrdm-server" --work "$out/work" "$@"
