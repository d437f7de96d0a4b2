#!/usr/bin/env bash
# Checks the gate's own verdicts: scripts/ab_judge.py (what scripts/ab.sh
# ends with) on made-up sets of four pairs, in flowbench's output format.
# A change whose rounds_per_s median is 30 % below the parent's must read
# `worse` and exit non-zero; a level one must exit 0. Against parents
# whose state_mb runs are identical, a change 16 bytes lower must not read
# `gain` (the floor: a tenth of the bound times the parent's median),
# while one 5 % lower must. Last, scripts/ab.sh itself runs two pairs
# over a stand-in `cargo` that rewrites the benchmark/Cargo.lock it builds
# against, as a real flowbench build of a stale lock does: the lock must
# come back byte for byte.
set -euo pipefail
cd "$(dirname "$0")/.."
dir=$(mktemp -d)
cp -p benchmark/Cargo.lock "$dir/Cargo.lock"
trap 'cp -p "$dir/Cargo.lock" benchmark/Cargo.lock; rm -rf "$dir"' EXIT

# record <set> <pair> <side> <rounds_per_s> [<state_mb>]
record() {
    mkdir -p "$dir/$1"
    cat >"$dir/$1/$2-$3.txt" <<EOR
  1000 measured rounds; update_digest 00000000000000aa event_digest 00000000000000bb
{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"setup_s": {"value": 0.01, "unit": "s"}, "rounds_per_s": {"value": $4, "unit": "1/s"}, "state_mb": {"value": ${5:-2.4}, "unit": "MB"}}}
EOR
}
parent=(30000 30400 29700 30100)
level=(30200 29900 30300 29800)
for i in 1 2 3 4; do
    record level "$i" parent "${parent[i - 1]}"
    record level "$i" change "${level[i - 1]}"
    record worse "$i" parent "${parent[i - 1]}"
    record worse "$i" change $((level[i - 1] * 7 / 10))
    record bytes "$i" parent "${parent[i - 1]}" 30.957
    record bytes "$i" change "${level[i - 1]}" 30.956984
    record drop "$i" parent "${parent[i - 1]}" 30.957
    record drop "$i" change "${level[i - 1]}" 29.40915
done

python3 scripts/ab_judge.py "$dir/level"
if out=$(python3 scripts/ab_judge.py "$dir/worse"); then
    echo "$out"
    echo "ab_selftest: a 30 % rounds_per_s drop passed the gate" >&2
    exit 1
fi
echo "$out"
grep -q '^rounds_per_s .* worse$' <<<"$out"
out=$(python3 scripts/ab_judge.py "$dir/bytes")
echo "$out"
if grep -q '^state_mb .* gain$' <<<"$out"; then
    echo "ab_selftest: a 16-byte state_mb drop against identical parents read as a gain" >&2
    exit 1
fi
out=$(python3 scripts/ab_judge.py "$dir/drop")
echo "$out"
if ! grep -q '^state_mb .* gain$' <<<"$out"; then
    echo "ab_selftest: a 5 % state_mb drop did not read as a gain" >&2
    exit 1
fi
# The stand-in `cargo build`: appends to the lock beside the manifest and
# writes a flowbench that prints the level set's first change run.
mkdir -p "$dir/bin"
cat >"$dir/bin/cargo" <<EOC
#!/usr/bin/env bash
while [ \$# -gt 0 ]; do
    case \$1 in
    --target-dir) target=\$2 ;;
    --manifest-path) manifest=\$2 ;;
    esac
    shift
done
echo "# rewritten by a build" >>"\$(dirname "\$manifest")/Cargo.lock"
mkdir -p "\$target/release"
printf '#!/bin/sh\ncat %s\n' "$dir/level/1-change.txt" >"\$target/release/flowbench"
chmod +x "\$target/release/flowbench"
EOC
chmod +x "$dir/bin/cargo"
if ! PATH="$dir/bin:$PATH" AB_DIR="$dir/ab" bash scripts/ab.sh HEAD steady4k \
    --pairs 2 --seconds 1 >"$dir/ab.out" 2>&1; then
    cat "$dir/ab.out"
    echo "ab_selftest: ab.sh over the stand-in builds failed" >&2
    exit 1
fi
if ! cmp -s "$dir/Cargo.lock" benchmark/Cargo.lock; then
    echo "ab_selftest: ab.sh left benchmark/Cargo.lock rewritten" >&2
    exit 1
fi
echo "ab_selftest: ok (level set passed, worse set refused, a 16-byte drop no gain, a 5 % drop a gain, benchmark/Cargo.lock restored)"
