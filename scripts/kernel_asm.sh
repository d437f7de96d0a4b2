#!/usr/bin/env bash
# What the compiler made of the FlowBlock kernels (crates/alloc/src/flowblock.rs)
# and the dirty set's marking passes (crates/alloc/src/dirty.rs).
#
#   scripts/kernel_asm.sh [target-cpu ...]     default: default x86-64-v3
#
# Per target CPU: builds flowtune-alloc's library with `--emit asm` into
# its own target dir, cuts rate_pass, normalize_pass and report_pass —
# the three flow kernels — price_update, the per-link NED step, and the
# incremental tick's two per-LinkBlock marking passes, DirtySet::diff
# (after the price update; both its loops, with and without ratio
# ceilings) and DirtySet::install (an exchange install), out of the
# assembly and prints each one's instruction count, divisions and
# conditional jumps — the numbers ARCHITECTURE's "FlowBlock layout and
# kernels" and "The incremental tick" quote. The marking passes are
# documented branch-free: their conditional jumps are loop back-edges,
# the vector loops' alias and length checks and the slice checks, never
# a jump on a moved flag. Exits non-zero if rate_pass or normalize_pass
# references `panic_bounds_check`: their per-link indices are masked, not
# checked, and a check that comes back (with its panic edge and the
# register it pins) costs the sweep a fifth of its speed without failing
# any test. report_pass's lent-slot check and price_update's (once per
# link, not per flow) are counted, not gated.
set -euo pipefail
cd "$(dirname "$0")/.."
cpus=("$@")
[ ${#cpus[@]} -gt 0 ] || cpus=(default x86-64-v3)
status=0
for cpu in "${cpus[@]}"; do
    dir="${CARGO_TARGET_DIR:-target}/kernel-asm/$cpu"
    flags="${RUSTFLAGS:-}"
    [ "$cpu" = default ] || flags="$flags -C target-cpu=$cpu"
    RUSTFLAGS="$flags" cargo rustc --release --offline --quiet -p flowtune-alloc --lib \
        --target-dir "$dir" -- --emit asm
    asm=$(ls -t "$dir"/release/deps/flowtune_alloc-*.s | head -n 1)
    echo "target-cpu $cpu ($asm)"
    for kernel in 9flowblock:rate_pass 9flowblock:normalize_pass 9flowblock:report_pass \
        9flowblock:price_update 5dirty8DirtySet:diff 5dirty8DirtySet:install; do
        # Every symbol of the kernel (a closure that was not inlined is
        # one too), label to .cfi_endproc; instructions are the indented
        # lines that are neither directives nor comments. `path` is the
        # mangled module (and type) prefix.
        awk -v path="${kernel%%:*}" -v kernel="${kernel#*:}" '
            $0 ~ "^_ZN14flowtune_alloc" path "[0-9]+" kernel "[0-9]+.*:$" { inside = 1; found = 1; next }
            inside && /\.cfi_endproc/ { inside = 0 }
            inside && /^\t[a-z]/ {
                insns++
                if ($1 ~ /^v?div/) divs++
                if ($1 ~ /^j/ && $1 != "jmp") jumps++
                if ($0 ~ /panic_bounds_check/) checks++
            }
            END {
                if (!found) { print "  " kernel ": symbol not found"; exit 1 }
                printf "  %-15s %4d instructions  %2d div  %3d conditional jumps  %d bounds checks\n",
                    kernel, insns, divs, jumps, checks
                if (checks && (kernel == "rate_pass" || kernel == "normalize_pass")) {
                    print "  " kernel " must not reference panic_bounds_check"
                    exit 1
                }
            }' "$asm" || status=1
    done
done
exit "$status"
