#!/usr/bin/env bash
# Same-host A/B benchmark of a base revision against the working tree:
#
#   scripts/abbench.sh <base-rev> <workload> <pairs> [seed]
#
# e.g. scripts/abbench.sh HEAD~ paper-batch 10 11
#
# The base revision is exported with `git archive` into a temporary
# directory. Each pair runs
#
#   bash perfbench/run.sh --workload <workload> --seed <seed> --seconds 25 --trace 0
#
# once in the base checkout and once in the working tree, alternating
# which side runs first. For every end-to-end metric in BENCHMARK.json
# it then prints both sides' quartiles (q25/median/q75, nearest-rank as
# in perfbench), the change's wins out of the pairs (ties count for
# neither side), and the verdict:
#
#   gain        the change wins at least 9/10 of the pairs and its median
#               beats the base median by more than the base's IQR;
#   over bound  the change's median is worse than the base median by
#               more than the metric's bound;
#   -           neither.
#
# Fails if any run fails or its result line is not "correct":true.
# The seed defaults to 1. Run it from anywhere inside the repository.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 <base-rev> <workload> <pairs> [seed]" >&2
    exit 2
fi
base_rev=$1 workload=$2 pairs=$3 seed=${4:-1}
case $pairs in
'' | *[!0-9]* | 0) echo "abbench: pairs must be a positive integer, got '$pairs'" >&2; exit 2 ;;
esac

root=$(git rev-parse --show-toplevel)
base_sha=$(git -C "$root" rev-parse --verify "$base_rev^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$base_sha" | tar -x -C "$tmp/base"

echo "abbench: base $base_rev ($base_sha) vs working tree of $root"
echo "abbench: workload $workload, seed $seed, $pairs pairs"

# run_side <side> <pair>: one benchmark run, result line to $tmp/<side>.jsonl.
run_side() {
    local side=$1 pair=$2 dir=$root log
    [ "$side" = base ] && dir=$tmp/base
    log=$tmp/$side.$pair.log
    if ! bash "$dir/perfbench/run.sh" --workload "$workload" --seed "$seed" --seconds 25 --trace 0 >"$log" 2>&1; then
        echo "abbench: $side run of pair $pair failed:" >&2
        tail -n 20 "$log" >&2
        exit 1
    fi
    local result
    result=$(tail -n 1 "$log")
    if ! grep -q '"correct":true' <<<"$result"; then
        echo "abbench: $side run of pair $pair is not correct: $result" >&2
        exit 1
    fi
    echo "$result" >>"$tmp/$side.jsonl"
    echo "  pair $pair $side: $result"
}

for ((p = 1; p <= pairs; p++)); do
    if ((p % 2)); then
        run_side base "$p"
        run_side change "$p"
    else
        run_side change "$p"
        run_side base "$p"
    fi
done

python3 - "$root/BENCHMARK.json" "$tmp/base.jsonl" "$tmp/change.jsonl" <<'EOF'
import json, math, sys

bench = json.load(open(sys.argv[1]))
base = [json.loads(l)["metrics"] for l in open(sys.argv[2])]
change = [json.loads(l)["metrics"] for l in open(sys.argv[3])]

def q(xs, p):
    # perfbench's convention: the ceil(p*n)-th order statistic.
    xs = sorted(xs)
    return xs[max(0, math.ceil(p * len(xs)) - 1)]

print(f"\n{'metric':<12} {'better':<7} {'base q25/med/q75':<28} {'change q25/med/q75':<28} {'wins':<7} verdict")
for m in bench["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    b = [r[name]["value"] for r in base if name in r]
    c = [r[name]["value"] for r in change if name in r]
    if not b or len(b) != len(c):
        print(f"{name:<12} not reported by every run")
        continue
    sign = 1 if lower else -1  # positive gap = change better
    wins = sum(1 for x, y in zip(b, c) if sign * (x - y) > 0)
    bmed, cmed = q(b, 0.5), q(c, 0.5)
    iqr = q(b, 0.75) - q(b, 0.25)
    gap = sign * (bmed - cmed)
    verdict = "-"
    if wins >= 0.9 * len(b) and gap > iqr:
        verdict = f"gain (median gap {gap:.4g} > base IQR {iqr:.4g})"
    elif bmed and -gap / abs(bmed) > m["bound"]:
        verdict = f"over bound ({-gap / abs(bmed):+.1%} worse, bound {m['bound']:.0%})"
    fmt = lambda xs: "/".join(f"{q(xs, p):.4g}" for p in (0.25, 0.5, 0.75))
    print(f"{name:<12} {m['better']:<7} {fmt(b):<28} {fmt(c):<28} {wins:>2}/{len(b):<4} {verdict}")
EOF
