#!/usr/bin/env bash
# Builds caligo's end-to-end benchmark from the sources of this checkout and
# runs one workload. Run it from the repository root:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout: the Go build cache, the binary,
# the generated inputs and the traced run's spans.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the root of a caligo checkout" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOMODCACHE="$out/gomod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/bench" && go build -o "$out/caligo-bench" .)
exec "$out/caligo-bench" --workdir "$out/work" "$@"
