#!/usr/bin/env bash
# The whole benchmark in one command: builds it, runs every workload
# untraced (end-to-end metrics), runs every workload again traced
# (per-layer metrics), checks every result against its oracle, and
# prints every metric by name with its unit.
#
#   benchmark/run_all.sh [seed]   # seed defaults to 1; run from anywhere
#
# Exits non-zero if any operation failed. Full records and the traces
# are left in benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
seed="${1:-1}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml
status=0
for trace in 0 1; do
    for workload in stream_large stream_small jit_request service_mix; do
        # The table goes to standard error; the last line of standard
        # output is the record the driver reads.
        record="$(cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)"
        case "$record" in
            '{"correct": true,'*) ;;
            *) echo "run_all: $workload (trace $trace) failed its checks" >&2; status=1 ;;
        esac
    done
done
exit "$status"
