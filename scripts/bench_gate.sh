#!/usr/bin/env bash
# bench_gate.sh — the repository's timing gate: HEAD against BASE, measured
# in alternating pairs on this machine. A figure recorded on another
# machine is never a baseline.
#
#   scripts/bench_gate.sh BASE
#
# BASE is a commit, such as the base of a pull request. The script checks it
# out into a temporary git worktree and gives that tree HEAD's perfbench/
# and BENCHMARK.json, so both sides run the same benchmark code and settings
# over their own crates. It builds each side's perfbench once, then runs 10
# pairs of every workload BENCHMARK.json declares, each run for the file's
# run_seconds, alternating which side goes first. For every end-to-end
# metric it prints each side's median and quartiles and HEAD's change.
#
# Exit status 1 means one of:
#   - a run on either side exited non-zero or reported "correct": false, so
#     a pinned digest or work counter moved;
#   - a metric's HEAD median is worse than BASE's by more than its bound:
#     below (1 - bound) x BASE where higher is better, above
#     (1 + bound) x BASE where lower is better.
# A metric whose BASE quartile spread, (q3 - q1) / median, exceeds its
# bound is printed as unresolved and fails nothing: the machine was too
# noisy to tell. Exit status 2 is a usage error.
set -euo pipefail

readonly PAIRS=10

if [ "$#" -ne 1 ]; then
    echo "usage: scripts/bench_gate.sh BASE" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
if ! base=$(git -C "$root" rev-parse --verify --quiet "$1^{commit}"); then
    echo "bench_gate: $1 is not a commit" >&2
    exit 2
fi

work=$(mktemp -d)
cleanup() {
    git -C "$root" worktree remove --force "$work/base" 2>/dev/null || true
    git -C "$root" worktree prune
    rm -rf "$work"
}
trap cleanup EXIT

git -C "$root" worktree add --quiet --detach "$work/base" "$base"
rm -rf "$work/base/perfbench" "$work/base/BENCHMARK.json"
git -C "$root" ls-files -z -- perfbench BENCHMARK.json |
    (cd "$root" && tar --null -T - -cf -) | tar -xf - -C "$work/base"

spec="$root/BENCHMARK.json"
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")
workloads=$(python3 -c 'import json, sys; print(*(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")

for side in "$root" "$work/base"; do
    echo "bench_gate: building perfbench in $side" >&2
    cargo build --quiet --release --offline \
        --manifest-path "$side/perfbench/Cargo.toml" --target-dir "$side/perfbench/target"
done

# run SIDE DIR WORKLOAD PAIR: one timed run; its JSON line goes to
# $work/runs/WORKLOAD.SIDE.PAIR.json.
mkdir "$work/runs"
run() {
    local out="$work/runs/$3.$1.$4"
    if ! (cd "$2" && perfbench/target/release/perfbench --workload "$3" --seconds "$seconds") \
        >"$out.log" 2>&1; then
        tail -n 20 "$out.log" >&2
        echo "bench_gate: FAIL: $3 pair $4 on $1 exited non-zero" >&2
        exit 1
    fi
    grep '^{' "$out.log" | tail -n 1 >"$out.json" || true
    if [ ! -s "$out.json" ]; then
        echo "bench_gate: FAIL: $3 pair $4 on $1 printed no JSON line" >&2
        exit 1
    fi
}

for workload in $workloads; do
    for pair in $(seq "$PAIRS"); do
        if [ $((pair % 2)) -eq 1 ]; then
            echo "bench_gate: $workload pair $pair/$PAIRS, base first" >&2
            run base "$work/base" "$workload" "$pair"
            run head "$root" "$workload" "$pair"
        else
            echo "bench_gate: $workload pair $pair/$PAIRS, head first" >&2
            run head "$root" "$workload" "$pair"
            run base "$work/base" "$workload" "$pair"
        fi
    done
done

python3 - "$spec" "$work/runs" "$PAIRS" "$base" <<'EOF'
import json
import sys
from pathlib import Path

spec, runs, pairs, base = json.load(open(sys.argv[1])), Path(sys.argv[2]), int(sys.argv[3]), sys.argv[4]


def quartiles(values):
    """q1, median and q3, interpolating linearly between ranks."""
    ordered = sorted(values)

    def at(q):
        rank = q * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)

    return at(0.25), at(0.5), at(0.75)


failed = False
print(f"bench_gate: HEAD against BASE {base[:12]}, {pairs} alternating pairs of {spec['run_seconds']} s runs")
for workload in [w["name"] for w in spec["workloads"]]:
    reports = {}
    for side in ("base", "head"):
        reports[side] = [
            json.loads((runs / f"{workload}.{side}.{pair}.json").read_text())
            for pair in range(1, pairs + 1)
        ]
        for pair, report in enumerate(reports[side], 1):
            if report["correct"] is not True:
                print(f"FAIL: {workload} pair {pair} on {side} reported correct: {report['correct']}")
                failed = True
    print()
    print(workload)
    print(
        f"  {'metric':<12} {'better':<6} {'bound':>5}  {'base median [q1, q3]':<28} "
        f"{'head median [q1, q3]':<28} {'change':>7} {'head better':>11} {'base spread':>11}  verdict"
    )
    for metric in spec["end_to_end"]:
        name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
        base_values = [r["metrics"][name]["value"] for r in reports["base"]]
        head_values = [r["metrics"][name]["value"] for r in reports["head"]]
        base_q1, base_median, base_q3 = quartiles(base_values)
        head_q1, head_median, head_q3 = quartiles(head_values)
        change = head_median / base_median - 1
        spread = (base_q3 - base_q1) / base_median
        wins = sum((h > b) if higher else (h < b) for b, h in zip(base_values, head_values))
        if spread > bound:
            verdict = "unresolved"
        elif (change < -bound) if higher else (change > bound):
            verdict = "FAIL"
            failed = True
        else:
            verdict = "ok"
        base_text = f"{base_median:.4g} [{base_q1:.4g}, {base_q3:.4g}]"
        head_text = f"{head_median:.4g} [{head_q1:.4g}, {head_q3:.4g}]"
        print(
            f"  {name:<12} {metric['better']:<6} {bound:>5}  {base_text:<28} {head_text:<28} "
            f"{change:>+7.1%} {f'{wins}/{pairs}':>11} {spread:>11.3f}  {verdict}"
        )
print()
print("bench_gate: FAIL" if failed else "bench_gate: ok")
sys.exit(1 if failed else 0)
EOF
