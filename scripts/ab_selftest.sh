#!/usr/bin/env bash
# Checks the gate's own verdicts: scripts/ab_judge.py (what scripts/ab.sh
# ends with) on two made-up sets of four pairs, in flowbench's output
# format. A change whose rounds_per_s median is 30 % below the parent's
# must read `worse` and exit non-zero; a level one must exit 0.
set -euo pipefail
cd "$(dirname "$0")/.."
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

# record <set> <pair> <side> <rounds_per_s>
record() {
    mkdir -p "$dir/$1"
    cat >"$dir/$1/$2-$3.txt" <<EOF
  1000 measured rounds; update_digest 00000000000000aa event_digest 00000000000000bb
{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"setup_s": {"value": 0.01, "unit": "s"}, "rounds_per_s": {"value": $4, "unit": "1/s"}, "state_mb": {"value": 2.4, "unit": "MB"}}}
EOF
}
parent=(30000 30400 29700 30100)
level=(30200 29900 30300 29800)
for i in 1 2 3 4; do
    record level "$i" parent "${parent[i - 1]}"
    record level "$i" change "${level[i - 1]}"
    record worse "$i" parent "${parent[i - 1]}"
    record worse "$i" change $((level[i - 1] * 7 / 10))
done

python3 scripts/ab_judge.py "$dir/level"
if out=$(python3 scripts/ab_judge.py "$dir/worse"); then
    echo "$out"
    echo "ab_selftest: a 30 % rounds_per_s drop passed the gate" >&2
    exit 1
fi
echo "$out"
grep -q '^rounds_per_s .* worse$' <<<"$out"
echo "ab_selftest: ok (level set passed, worse set refused)"
