#!/usr/bin/env bash
# Builds flowbench from source and runs it.
#
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       one run; the last line of stdout is the result (BENCHMARK.json's
#       command is this form)
#   benchmark/run.sh [--seed N] [--seconds S]
#       every workload, untraced (end-to-end metrics) then traced
#       (per-layer metrics and probes)
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
export FLOWBENCH_OUT="$target"
FLOWBENCH_RUSTC="$(rustc -V)"
FLOWBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export FLOWBENCH_RUSTC FLOWBENCH_COMMIT
bin="$target/release/flowbench"
case " $* " in
*" --workload "*) exec "$bin" "$@" ;;
esac
status=0
for workload in steady4k churn-web quiet100k shard4 wire2uds; do
    for trace in 0 1; do
        "$bin" --workload "$workload" --trace "$trace" "$@" || status=$?
    done
done
exit "$status"
