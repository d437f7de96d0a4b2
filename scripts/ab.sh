#!/usr/bin/env bash
# Alternating parent/change pairs of one flowbench workload, judged by the
# rule a perf claim is held to (choosing-metrics §8, BENCHMARK.json's
# bounds).
#
#   scripts/ab.sh <parent-rev> <workload> [--pairs 10] [--seed N] [--seconds S]
#
# The change is the working tree; the parent is `git archive <parent-rev>`
# unpacked under $AB_DIR (default target/ab), each side built by its own
# benchmark/run.sh into its own CARGO_TARGET_DIR. Pair i runs the parent
# first when i is odd, the change first when even. --seed defaults to a
# random one (an unseen seed; it is printed, pass it back to repeat a
# run), --seconds to BENCHMARK.json's run_seconds.
#
# Prints, per end-to-end metric: both medians, the parent's quartiles,
# pairs won, and a verdict —
#   gain          the change wins >= 9/10 of the pairs (ties count for
#                 neither) and the medians differ by more than the
#                 parent's inter-quartile range;
#   worse         the change's median is worse than the parent's by more
#                 than the metric's bound;
#   unresolved    neither, and the parent's runs spread wider than the
#                 bound (unless every change run beats every parent run);
#   within-bound  neither, and the spread is inside the bound —
# then whether update_digest, event_digest and `failed` matched on every
# pair. Every run's raw output stays in $AB_DIR/runs/.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    sed -n '2,8p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}
[ $# -ge 2 ] || usage
parent_rev=$1 workload=$2
shift 2
pairs=10 seed=$((RANDOM * 32768 + RANDOM))
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
while [ $# -gt 0 ]; do
    case $1 in
    --pairs) pairs=$2 ;;
    --seed) seed=$2 ;;
    --seconds) seconds=$2 ;;
    *) usage ;;
    esac
    shift 2
done

ab_dir=$(mkdir -p "${AB_DIR:-target/ab}" && cd "${AB_DIR:-target/ab}" && pwd)
sha=$(git rev-parse --verify "$parent_rev^{commit}")
parent_src=$ab_dir/parent-$sha
if [ ! -d "$parent_src" ]; then
    mkdir -p "$parent_src.partial"
    git archive "$sha" | tar -x -C "$parent_src.partial"
    mv "$parent_src.partial" "$parent_src"
fi

# Where `side` (parent | change) is checked out.
src_of() {
    if [ "$1" = parent ]; then echo "$parent_src"; else echo "$PWD"; fi
}

# One flowbench run of `side`: stdout and stderr into its own file under
# runs/.
run_side() {
    local side=$1 out=$2
    (cd "$(src_of "$side")" && CARGO_TARGET_DIR="$ab_dir/target-$side" bash benchmark/run.sh \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) \
        >"$out" 2>&1 || echo "ab.sh: exit status $?" >>"$out"
}

echo "ab.sh: $workload, parent ${sha:0:7} vs working tree, $pairs pairs, seed $seed, $seconds s a run" >&2
runs=$ab_dir/runs/$workload-$seed-$(date +%s)
mkdir -p "$runs"
# Build both sides before the first timed pair (run.sh's own build is then
# a no-op), and make sure they are two programs.
for side in parent change; do
    cargo build --release --offline --quiet --target-dir "$ab_dir/target-$side" \
        --manifest-path "$(src_of "$side")/benchmark/Cargo.toml" >&2
done
if cmp -s "$ab_dir/target-parent/release/flowbench" "$ab_dir/target-change/release/flowbench"; then
    echo "ab.sh: warning: parent and change built the identical binary" >&2
fi
for i in $(seq 1 "$pairs"); do
    order="parent change"
    [ $((i % 2)) -eq 0 ] && order="change parent"
    for side in $order; do
        run_side "$side" "$runs/$i-$side.txt"
    done
    echo "ab.sh: pair $i/$pairs done ($order)" >&2
done

python3 - "$runs" "$pairs" <<'EOF'
import json, re, statistics, sys

runs, pairs = sys.argv[1], int(sys.argv[2])
with open("BENCHMARK.json") as f:
    bench = json.load(f)


def load(i, side):
    """One run: its metrics, and what must be identical across a pair."""
    text = open(f"{runs}/{i}-{side}.txt").read()
    status = re.search(r"^ab\.sh: exit status (\d+)$", text, re.M)
    digests = re.search(r"update_digest (\w+) event_digest (\w+)", text)
    try:
        result = json.loads(text.strip().splitlines()[-1 - bool(status)])
    except (ValueError, IndexError):
        sys.exit(f"pair {i} {side}: no result line, see {runs}/{i}-{side}.txt")
    same = (digests.groups() if digests else None, result["failed"], result["correct"])
    return {k: m["value"] for k, m in result["metrics"].items()}, same


parent, change, mismatched = [], [], []
for i in range(1, pairs + 1):
    (p, p_same), (c, c_same) = load(i, "parent"), load(i, "change")
    parent.append(p)
    change.append(c)
    if p_same != c_same or p_same[0] is None:
        mismatched.append((i, p_same, c_same))

print(f"{'metric':<14}{'parent med':>13}{'change med':>13}{'ratio':>8}"
      f"{'parent q1':>13}{'parent q3':>13}{'won':>7}  verdict")
for m in bench["end_to_end"]:
    a = [r[m["name"]] for r in parent]
    b = [r[m["name"]] for r in change]
    sign = -1 if m["better"] == "lower" else 1
    won = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (med_a,) * 3
    better_by = sign * (med_b - med_a)
    if won >= 0.9 * pairs and better_by > q3 - q1:
        verdict = "gain"
    elif -better_by > m["bound"] * med_a:
        verdict = "worse"
    elif q3 - q1 > m["bound"] * med_a and not (
            min(sign * y for y in b) > max(sign * x for x in a)):
        verdict = "unresolved"
    else:
        verdict = "within-bound"
    print(f"{m['name']:<14}{med_a:>13.5g}{med_b:>13.5g}{med_b / med_a:>8.3f}"
          f"{q1:>13.5g}{q3:>13.5g}{won:>4}/{pairs:<2}  {verdict}")

if mismatched:
    print(f"digests / failed: MISMATCH on {len(mismatched)} of {pairs} pairs")
    for i, p_same, c_same in mismatched:
        print(f"  pair {i}: parent {p_same} change {c_same}")
    sys.exit(1)
print(f"digests / failed: update_digest, event_digest and failed matched on all {pairs} pairs")
EOF
