#!/usr/bin/env bash
# Alternating parent/change pairs of one flowbench workload, judged by the
# rule a perf claim is held to (choosing-metrics §8, BENCHMARK.json's
# bounds).
#
#   scripts/ab.sh <parent-rev> <workload> [--pairs 10] [--seed N] [--seconds S]
#                                       [--trace [--layers a,b,...]]
#
# The change is the working tree; the parent is `git archive <parent-rev>`
# unpacked under $AB_DIR (default target/ab), each side built by its own
# benchmark/run.sh into its own CARGO_TARGET_DIR. Pair i runs the parent
# first when i is odd, the change first when even. --seed defaults to a
# random one (an unseen seed; it is printed, pass it back to repeat a
# run), --seconds to BENCHMARK.json's run_seconds.
#
# --trace runs the same pairs with flowbench's `--trace 1` and prints, per
# layer metric, both medians, the parent's quartiles and pairs won — where
# a saving sits (choosing-metrics §6.6), never whether there is one: no
# verdict is printed, end-to-end claims rest on untraced runs. --layers
# names the `per_layer` metrics of BENCHMARK.json to print; the default
# is every one whose medians differ by more than the parent's
# inter-quartile range.
#
# Untraced, prints per end-to-end metric: both medians, the parent's
# quartiles, pairs won, and a verdict —
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
    sed -n '2,7p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}
[ $# -ge 2 ] || usage
parent_rev=$1 workload=$2
shift 2
pairs=10 seed=$((RANDOM * 32768 + RANDOM)) trace=0 layers=
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
while [ $# -gt 0 ]; do
    case $1 in
    --trace)
        trace=1
        shift
        continue
        ;;
    --pairs) pairs=$2 ;;
    --seed) seed=$2 ;;
    --seconds) seconds=$2 ;;
    --layers) layers=$2 ;;
    *) usage ;;
    esac
    shift 2
done
[ -z "$layers" ] || [ "$trace" = 1 ] || usage

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
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace") \
        >"$out" 2>&1 || echo "ab.sh: exit status $?" >>"$out"
}

echo "ab.sh: $workload, parent ${sha:0:7} vs working tree, $pairs pairs, seed $seed, $seconds s a run, trace $trace" >&2
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

python3 - "$runs" "$pairs" "$trace" "$layers" <<'EOF'
import json, re, statistics, sys

runs, pairs, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
layers = [name for name in sys.argv[4].split(",") if name]
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

listed = bench["per_layer" if trace else "end_to_end"]
unknown = set(layers) - {m["name"] for m in listed}
if unknown:
    sys.exit(f"--layers: not a per_layer metric of BENCHMARK.json: {sorted(unknown)}")
width = max(len(m["name"]) for m in listed) + 2
print(f"{'metric':<{width}}{'parent med':>13}{'change med':>13}{'ratio':>8}"
      f"{'parent q1':>13}{'parent q3':>13}{'won':>7}" + ("" if trace else "  verdict"))
for m in listed:
    # A traced run reports the layers its plane has; the others are absent.
    if not all(m["name"] in r for r in parent + change):
        continue
    a = [r[m["name"]] for r in parent]
    b = [r[m["name"]] for r in change]
    sign = -1 if m["better"] == "lower" else 1
    won = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (med_a,) * 3
    better_by = sign * (med_b - med_a)
    if trace:
        shown = m["name"] in layers if layers else abs(better_by) > q3 - q1
        if not shown:
            continue
        verdict = ""
    elif won >= 0.9 * pairs and better_by > q3 - q1:
        verdict = "gain"
    elif -better_by > m["bound"] * med_a:
        verdict = "worse"
    elif q3 - q1 > m["bound"] * med_a and not (
            min(sign * y for y in b) > max(sign * x for x in a)):
        verdict = "unresolved"
    else:
        verdict = "within-bound"
    ratio = f"{med_b / med_a:>8.3f}" if med_a else f"{'-':>8}"
    print(f"{m['name']:<{width}}{med_a:>13.5g}{med_b:>13.5g}{ratio}"
          f"{q1:>13.5g}{q3:>13.5g}{won:>4}/{pairs:<2}  {verdict}")

if mismatched:
    print(f"digests / failed: MISMATCH on {len(mismatched)} of {pairs} pairs")
    for i, p_same, c_same in mismatched:
        print(f"  pair {i}: parent {p_same} change {c_same}")
    sys.exit(1)
print(f"digests / failed: update_digest, event_digest and failed matched on all {pairs} pairs")
EOF
