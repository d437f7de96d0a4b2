#!/usr/bin/env bash
# Non-test, non-comment, non-blank Rust lines over crates/ and src/: each
# file is counted up to its first `#[cfg(test)]`, `tests/` directories are
# skipped. The figure ROADMAP item 6 tracks ("lines removed since PR 14").
set -euo pipefail
cd "$(dirname "$0")/.."
find crates src -name '*.rs' -not -path '*/tests/*' -print0 |
    xargs -0 -I{} awk '/#\[cfg\(test\)\]/{exit} {l=$0; sub(/^[ \t]+/,"",l); if (l!="" && l !~ /^\/\//) n++} END{print n+0}' {} |
    awk '{s+=$1} END{print s+0}'
