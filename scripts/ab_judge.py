#!/usr/bin/env python3
"""Judges a directory of recorded flowbench pairs: ab.sh's verdicts.

  python3 scripts/ab_judge.py <runs-dir> [trace 0|1] [layers a,b,...]

<runs-dir> holds `<i>-parent.txt` and `<i>-change.txt` for i = 1..pairs,
each the output of one `benchmark/run.sh --workload ...` run (ab.sh
writes them; scripts/ab_selftest.sh makes two small sets up). Prints the
table scripts/ab.sh documents and exits non-zero when update_digest,
event_digest, `failed` or `correct` differ within a pair, or — untraced —
when any end-to-end metric's verdict is `worse`.
"""
import glob, json, os, re, statistics, sys

runs = sys.argv[1]
trace = len(sys.argv) > 2 and sys.argv[2] == "1"
layers = [name for name in sys.argv[3].split(",") if name] if len(sys.argv) > 3 else []
pairs = len(glob.glob(f"{runs}/*-parent.txt"))
if not pairs:
    sys.exit(f"{runs}: no <i>-parent.txt runs")
with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")) as f:
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
worse = []
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
    elif won >= 0.9 * pairs and better_by > q3 - q1 and better_by > m["bound"] * med_a / 10:
        verdict = "gain"
    elif -better_by > m["bound"] * med_a:
        verdict = "worse"
        worse.append(m["name"])
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
else:
    print(f"digests / failed: update_digest, event_digest and failed matched on all {pairs} pairs")
if worse:
    print(f"worse than the parent beyond BENCHMARK.json's bound: {', '.join(worse)}")
sys.exit(1 if mismatched or worse else 0)
