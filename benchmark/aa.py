#!/usr/bin/env python3
"""A/A check of the benchmark against its own bounds.

Runs every workload of BENCHMARK.json over two sets of seeds on the same
build and applies the acceptance rule the benchmark is held to: for each
workload x end-to-end metric, the spread of a set (distance between the
first and third quartile of its values, as a share of their median) must
stay within the metric's bound (setup_s excepted), and the second set's
median must not be worse than the first's by more than the bound.

    benchmark/aa.py [--runs N] [--workload NAME]... [--self-test]
"""
import argparse
import json
import statistics
import subprocess
import sys


def spread(values):
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`
    (negative when it is better)."""
    delta = second - first if better == "lower" else first - second
    return delta / first


def self_test():
    assert spread([1, 2, 3, 4, 10]) == (7.0 - 1.5) / 3
    assert spread([5.0] * 10) == 0.0
    assert worse_by(100.0, 110.0, "lower") == 0.1
    assert worse_by(100.0, 110.0, "higher") == -0.1
    assert worse_by(100.0, 90.0, "higher") == 0.1
    print("aa.py self-test passed")


def run(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed operations")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs (seeds) per set")
    ap.add_argument("--workload", action="append", help="only these workloads")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    failed = False
    for workload in names:
        sets = [[run(bench["command"], workload, seed, bench["run_seconds"])
                 for seed in range(first, first + args.runs)]
                for first in (1, 1 + args.runs)]
        print(f"{workload}")
        print(f"  {'metric':<24}{'median A':>14}{'median B':>14}{'B worse by':>12}"
              f"{'spread A':>10}{'spread B':>10}{'bound':>8}")
        for m in bench["end_to_end"]:
            a, b = ([r[m["name"]] for r in s] for s in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            drift = worse_by(med_a, med_b, m["better"])
            spreads = [spread(a), spread(b)]
            ok = drift <= m["bound"] and (m["name"] == "setup_s"
                                          or max(spreads) <= m["bound"])
            failed |= not ok
            print(f"  {m['name']:<24}{med_a:>14.4f}{med_b:>14.4f}{drift:>+12.1%}"
                  f"{spreads[0]:>10.1%}{spreads[1]:>10.1%}{m['bound']:>8.0%}"
                  f"  {'PASS' if ok else 'FAIL'}")
        sys.stdout.flush()
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
