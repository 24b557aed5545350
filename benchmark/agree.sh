#!/usr/bin/env bash
# Self-agreement of the benchmark: runs the command of BENCHMARK.json
# N times (seeds 1..N) on every workload, twice over, and compares the
# two sets.
#
#   benchmark/agree.sh [N]        # N defaults to 5; run from the repo root
#
# Prints, per (end-to-end metric, workload), both medians, both
# quartile pairs, the spread (distance between the quartiles over the
# median, as statistics.quantiles(values, n=4) gives them) and the
# metric's bound. Exits non-zero if a pair of medians disagrees by more
# than the bound, a spread exceeds its bound (setup_s excepted, as in
# the driver), an operation failed, or a run printed other metrics than
# BENCHMARK.json lists.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
exec python3 - "${1:-5}" <<'EOF'
import json, statistics, subprocess, sys

n = int(sys.argv[1])
spec = json.load(open("BENCHMARK.json"))
metrics = spec["end_to_end"]
names = [m["name"] for m in metrics]

def run(workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True).stdout
    record = json.loads(out.strip().splitlines()[-1])
    if sorted(record["metrics"]) != sorted(names):
        sys.exit(f"{workload}: printed {sorted(record['metrics'])}, BENCHMARK.json lists {sorted(names)}")
    return record

sets = []
failed = 0
for which in (1, 2):
    values = {}
    for w in spec["workloads"]:
        for seed in range(1, n + 1):
            print(f"set {which}: {w['name']} seed {seed}", file=sys.stderr, flush=True)
            record = run(w["name"], seed)
            failed += record["failed"]
            for name in names:
                values.setdefault((name, w["name"]), []).append(record["metrics"][name]["value"])
    sets.append(values)

def quartiles(v):
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]

bad = failed > 0
print(f"{'metric':<16}{'workload':<14}{'median 1':>12}{'median 2':>12}{'differ':>8}"
      f"{'spread 1':>10}{'spread 2':>10}{'bound':>7}   quartiles 1 / quartiles 2")
for m in metrics:
    for w in spec["workloads"]:
        key = (m["name"], w["name"])
        a, b = sets[0][key], sets[1][key]
        ma, mb = statistics.median(a), statistics.median(b)
        (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
        sa, sb = (a3 - a1) / ma, (b3 - b1) / mb
        differ = abs(mb - ma) / ma
        verdict = ""
        if differ > m["bound"]:
            verdict, bad = "  MEDIANS DISAGREE", True
        elif m["name"] != "setup_s" and max(sa, sb) > m["bound"]:
            verdict, bad = "  SPREAD OVER BOUND", True
        elif m["name"] != "setup_s" and max(sa, sb) > m["bound"] / 3:
            verdict = "  (spread over a third of the bound)"
        print(f"{m['name']:<16}{w['name']:<14}{ma:>12.4g}{mb:>12.4g}{differ:>8.1%}"
              f"{sa:>10.1%}{sb:>10.1%}{m['bound']:>7.0%}   "
              f"[{a1:.4g}, {a3:.4g}] / [{b1:.4g}, {b3:.4g}]{verdict}")
print(f"failed operations: {failed}")
sys.exit(1 if bad else 0)
EOF
