#!/usr/bin/env bash
# The figure bins that print no wall-clock time are functions of their
# seed: the same binary must print the same bytes twice, and a change
# that claims to leave a figure alone must print what its parent prints.
#
#   scripts/fig_repro.sh                  build the tree's bench bins
#                                         (release) and run every listed
#                                         `--quick` figure twice; exits
#                                         non-zero, naming the run and its
#                                         first differing line, when two
#                                         runs of one binary disagree
#   scripts/fig_repro.sh --against <rev>  also build <rev>'s bins, from a
#                                         `git archive` into a temp dir
#                                         (as `loc.sh --below` counts one),
#                                         and compare their stdout with
#                                         the tree's; non-zero when any
#                                         listed run differs
#
# fig9 is the one packet-simulator run listed (≈ 6.5 s at `--quick`, no
# wall-clock time printed): it puts the simulator's determinism, and the
# control messages it encodes, under the byte compare. fig4 / 8 / 10 /
# 11 (the same simulator, slower) and the §6.1 tables are not listed:
# `table_fastpass` and `table_multicore` print times.
set -euo pipefail
cd "$(dirname "$0")/.."

# The default config ticks incrementally at wire precision; the runs
# that name `--incremental=off` keep the full sweep under the compare,
# unsharded and sharded.
RUNS=(
    "fig5_update_traffic"
    "fig5_update_traffic --incremental=off"
    "fig5_update_traffic --shards 2 --exchange-every 1"
    "fig5_update_traffic --incremental=off --shards 2 --exchange-every 1"
    "fig6_threshold"
    "fig6_threshold --shards 2 --exchange-every 1"
    "fig7_scaling"
    "fig7_scaling --shards 2 --exchange-every 1"
    "fig7_scaling --incremental --full-sweep-every 16"
    "fig12_overalloc"
    "fig12_overalloc --shards 2 --exchange-every 1"
    "fig12_overalloc --shards 4 --exchange-every 1"
    "fig12_overalloc --shards 2 --exchange-every 1 --placement traffic --pair-affinity 0.8 --exchange-delta-eps 0.001"
    "fig12_overalloc --engine gradient --shards 2 --exchange-every 1"
    "fig13_norm"
    "fig14_scenarios"
    "fig9_queueing"
)

against=
case "${1:-}" in
"") ;;
--against) against="${2:?usage: scripts/fig_repro.sh [--against <rev>]}" ;;
*)
    echo "usage: scripts/fig_repro.sh [--against <rev>]" >&2
    exit 2
    ;;
esac

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Builds the listed bins of the checkout at <src> into <target-dir>.
build() ( # <src> <target-dir>
    cd "$1"
    bins=$(printf '%s\n' "${RUNS[@]}" | awk '{print "--bin " $1}' | sort -u)
    # shellcheck disable=SC2086
    CARGO_TARGET_DIR="$2" cargo build --release -q -p flowtune-bench $bins
)

# Runs every listed figure out of <bin-dir>, one stdout file each.
run_all() { # <bin-dir> <out-dir>
    mkdir -p "$2"
    local i=0 run
    for run in "${RUNS[@]}"; do
        # shellcheck disable=SC2086
        "$1"/$run --quick >"$2/$i.txt"
        i=$((i + 1))
    done
}

# Compares two output dirs run by run; prints each differing run with
# its first differing line and returns non-zero if there was one.
compare() { # <a-dir> <a-label> <b-dir> <b-label>
    local i=0 run bad=0
    for run in "${RUNS[@]}"; do
        if ! cmp -s "$1/$i.txt" "$3/$i.txt"; then
            bad=1
            echo "DIFFERS: $run --quick ($2 vs $4), first differing line:"
            diff "$1/$i.txt" "$3/$i.txt" | sed -n '2p;/^>/{p;q}' | sed 's/^/    /'
        fi
        i=$((i + 1))
    done
    return $bad
}

tree_target="${CARGO_TARGET_DIR:-target}"
build . "$tree_target"
tree_bins="$(cd "$tree_target/release" && pwd)"
status=0
run_all "$tree_bins" "$work/tree-1"
run_all "$tree_bins" "$work/tree-2"
compare "$work/tree-1" "first run" "$work/tree-2" "second run" || status=1

if [ -n "$against" ]; then
    sha=$(git rev-parse --verify "$against^{commit}")
    mkdir "$work/src"
    git archive "$sha" | tar -x -C "$work/src"
    build "$work/src" "$work/target"
    run_all "$work/target/release" "$work/rev"
    compare "$work/rev" "$against" "$work/tree-1" "tree" || status=1
fi

[ $status -eq 0 ] && echo "fig_repro: ${#RUNS[@]} runs reproduce${against:+, and match $against}"
exit $status
