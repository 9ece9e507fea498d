#!/usr/bin/env bash
# A/B comparison of two revisions with ccbench.
#
#   ccbench/ab.sh <base-rev> <change-rev> [workload ...]
#
# Exports both revisions with `git archive`, overlays this working tree's
# ccbench/ on each (so both sides run identical benchmark code), and builds
# each side into its own target directory under ccbench/target/ab. Then it
# runs PAIRS pairs of untraced runs per workload, flipping which side runs
# first in each pair; pair i runs both sides on seed SEED + i. Finally it
# prints, per workload and end-to-end metric, each side's median and
# quartiles, the change's win fraction (ties count for neither) and a
# verdict: a gain needs a win fraction of at least 0.9 and a median
# difference larger than the base's interquartile range; a regression is a
# change median worse than the base's by more than the metric's bound in
# BENCHMARK.json.
#
# Environment: PAIRS (default 10), SEED (default 52357; use 1985 only to
# confirm a finished claim), RUN_SECONDS (default: run_seconds from
# BENCHMARK.json).
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,20p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
base_rev=$1
change_rev=$2
shift 2

root=$(git rev-parse --show-toplevel)
bench_json="$root/BENCHMARK.json"
pairs=${PAIRS:-10}
seed=${SEED:-52357}
run_seconds=${RUN_SECONDS:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$bench_json")}
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(python3 -c 'import json,sys; [print(w["name"]) for w in json.load(open(sys.argv[1]))["workloads"]]' "$bench_json")
fi

work="$root/ccbench/target/ab"
rm -rf "$work"
mkdir -p "$work"
for side in base change; do
    rev=$base_rev
    [ "$side" = change ] && rev=$change_rev
    mkdir -p "$work/$side"
    git -C "$root" archive "$rev" | tar -x -C "$work/$side"
    rm -rf "$work/$side/ccbench"
    mkdir -p "$work/$side/ccbench"
    (cd "$root/ccbench" && tar -c --exclude=./target .) | tar -x -C "$work/$side/ccbench"
    echo "building $side ($rev)" >&2
    CARGO_TARGET_DIR="$work/$side-target" cargo build --release --offline --quiet \
        --manifest-path "$work/$side/ccbench/Cargo.toml"
done

results="$work/results.tsv"
: > "$results"
run_side() { # side pair workload
    local out
    out=$("$work/$1-target/release/ccbench" --workload "$3" --seed $((seed + $2)) \
        --seconds "$run_seconds" --trace 0 | tail -n 1)
    printf '%s\t%s\t%s\t%s\n' "$1" "$2" "$3" "$out" >> "$results"
}
for ((i = 1; i <= pairs; i++)); do
    for w in "${workloads[@]}"; do
        if ((i % 2)); then first=base second=change; else first=change second=base; fi
        echo "pair $i/$pairs $w: $first first" >&2
        run_side "$first" "$i" "$w"
        run_side "$second" "$i" "$w"
    done
done

python3 - "$results" "$bench_json" <<'EOF'
import json, statistics, sys

rows = [line.rstrip("\n").split("\t", 3) for line in open(sys.argv[1])]
spec = {m["name"]: m for m in json.load(open(sys.argv[2]))["end_to_end"]}
vals = {}
for side, pair, workload, doc in rows:
    res = json.loads(doc)
    if not res["correct"]:
        print(f"warning: {side} pair {pair} {workload}: {res['failed']} failed operations")
    for name, m in res["metrics"].items():
        vals.setdefault((workload, name), {}).setdefault(side, {})[pair] = m["value"]

def quartiles(v):
    return statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3

print(f"{'workload':<16}{'metric':<14}{'base q1/med/q3':<38}{'change q1/med/q3':<38}{'wins':>6}  verdict")
for (workload, name), sides in vals.items():
    base, change = sides.get("base", {}), sides.get("change", {})
    common = sorted(set(base) & set(change))
    if not common:
        continue
    b = [base[p] for p in common]
    c = [change[p] for p in common]
    lower = spec[name]["better"] == "lower"
    wins = sum((cv < bv) if lower else (cv > bv) for bv, cv in zip(b, c))
    bq, cq = quartiles(b), quartiles(c)
    diff = bq[1] - cq[1] if lower else cq[1] - bq[1]
    verdict = "no change"
    if wins >= 0.9 * len(common) and diff > bq[2] - bq[0]:
        verdict = "gain"
    elif -diff > spec[name]["bound"] * bq[1]:
        verdict = "regression"
    fmt = lambda q: "/".join(f"{x:.5g}" for x in q)
    print(f"{workload:<16}{name:<14}{fmt(bq):<38}{fmt(cq):<38}{wins:>3}/{len(common):<2}  {verdict}")
EOF
