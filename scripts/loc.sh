#!/usr/bin/env bash
# Non-test, non-comment, non-blank Rust lines over crates/ and src/: each
# file is counted up to its first `#[cfg(test)]` attribute (at the start of
# a line, so a comment that quotes it does not stop the count), `tests/`
# directories are skipped. The figure ROADMAP item 9 tracks ("lines removed
# since PR 14").
#
#   scripts/loc.sh                the working tree's figure
#   scripts/loc.sh --below <rev>  <rev>'s figure (from a `git archive`),
#                                 then the working tree's; exits non-zero
#                                 unless the tree's is strictly lower —
#                                 the bar of a [simplicity] PR
set -euo pipefail
cd "$(dirname "$0")/.."

count() ( # <root>
    cd "$1"
    find crates src -name '*.rs' -not -path '*/tests/*' -print0 |
        xargs -0 -I{} awk '/^[ \t]*#\[cfg\(test\)\]/{exit} {l=$0; sub(/^[ \t]+/,"",l); if (l!="" && l !~ /^\/\//) n++} END{print n+0}' {} |
        awk '{s+=$1} END{print s+0}'
)

case "${1:-}" in
"") count . ;;
--below)
    rev="${2:?usage: scripts/loc.sh --below <rev>}"
    base="$(mktemp -d)"
    trap 'rm -rf "$base"' EXIT
    git archive "$rev" crates src | tar -x -C "$base"
    was="$(count "$base")"
    now="$(count .)"
    echo "$rev $was"
    echo "tree $now"
    [ "$now" -lt "$was" ]
    ;;
*)
    echo "usage: scripts/loc.sh [--below <rev>]" >&2
    exit 2
    ;;
esac
