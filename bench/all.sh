#!/usr/bin/env bash
# Runs every workload of caligo's end-to-end benchmark once, in turn, and
# stops with a non-zero exit at the first run that fails or disagrees
# with its oracle. Run it from the repository root:
#
#   bash bench/all.sh [seed] [seconds] [trace]
#
# seed defaults to 1, seconds to 30 and trace to 0 (end-to-end metrics;
# 1 prints the per-layer ledger).
set -euo pipefail

seed=${1:-1}
seconds=${2:-30}
trace=${3:-0}
for w in annotate scan append-requery; do
	echo "== $w"
	bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace"
done
