#!/usr/bin/env sh
# Blocking gate for the structure-aware advisor (S40): on the small
# tier of `experiments -- advisor`, the kernel/format pair the advisor
# picks must run within CEILING x the measured-best pair on every row
# (`small_max_regret` in BENCH_advisor.json). The large tier is
# reported but not gated here — wall-clock noise on 10^5+-row inputs
# makes a hard ceiling flaky.
#
# Usage: ci/advisor_gate.sh [path-to-BENCH_advisor.json]
set -eu
# A report named on the command line is relative to where this ran
# from; the default one is the repository's.
report="${1:-}"
case "$report" in
"" | /*) ;;
*) report="$PWD/$report" ;;
esac
cd "$(dirname "$0")/.."
report="${report:-BENCH_advisor.json}"
ceiling="1.25"

if [ ! -f "$report" ]; then
    echo "error: $report not found — run 'experiments -- advisor' first." >&2
    exit 2
fi

regret=$(grep -o '"small_max_regret":[^,}]*' "$report" | head -n 1 \
    | cut -d: -f2 | tr -d '[:space:]')
if [ -z "$regret" ]; then
    echo "error: $report has no small_max_regret field." >&2
    exit 2
fi

echo "advisor small-tier max regret: $regret (ceiling: $ceiling)"
if awk -v r="$regret" -v c="$ceiling" 'BEGIN { exit !(r > c) }'; then
    echo "error: advisor regret ceiling exceeded ($regret > $ceiling)." >&2
    echo "The cost model picked a plan more than ${ceiling}x slower than the" >&2
    echo "measured best on a small-tier input. Inspect the per-row 'formats'" >&2
    echo "arrays in $report and recalibrate the model before merging." >&2
    exit 1
fi
