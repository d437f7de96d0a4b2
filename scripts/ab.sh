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
#                 parent's inter-quartile range and by more than a tenth
#                 of the metric's bound times the parent's median (so
#                 identical parent runs do not make any difference a
#                 gain);
#   worse         the change's median is worse than the parent's by more
#                 than the metric's bound;
#   unresolved    neither, and the parent's runs spread wider than the
#                 bound (unless every change run beats every parent run);
#   within-bound  neither, and the spread is inside the bound —
# then whether update_digest, event_digest and `failed` matched on every
# pair. Exits non-zero when they did not, or when any verdict is `worse`:
# that is the rule a PR is held to, and CI's perf-pairs job is this
# script against the PR's base. Every run's raw output stays in
# $AB_DIR/runs/; the judging is scripts/ab_judge.py <that directory>
# (scripts/ab_selftest.sh checks its verdicts on two made-up sets).
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

# A flowbench build rewrites a stale benchmark/Cargo.lock; the working
# tree's goes back as it was however the script ends.
cp -p benchmark/Cargo.lock "$ab_dir/Cargo.lock.saved"
trap 'cp -p "$ab_dir/Cargo.lock.saved" benchmark/Cargo.lock' EXIT
trap 'exit 130' INT TERM

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

python3 scripts/ab_judge.py "$runs" "$trace" "$layers"
