#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark runs by the pair rule.

    python3 bench/e2e/compare.py A B [--pairs N] [--seed S]
                                     [--workload W[,W...]]

A and B are either two checkouts (directories holding bench/e2e/run.py),
which are then run alternately — N pairs, the side that goes first
alternating, records kept in build-bench/compare/ — or two sets of
records written by `run.py --out`: a record file or a directory of them,
paired in sorted order. A is the parent, B the change. Both sides run
for the benchmark's own run_seconds.

For every workload and every end-to-end metric of BENCHMARK.json the
report gives each side's median and quartiles and a verdict:
  gain        B better in at least 9/10 of the pairs, and the medians
              differ by more than A's interquartile distance (needs at
              least 10 pairs);
  regression  B's median worse than A's by more than the metric's bound;
  unresolved  a side's spread (interquartile distance over median) is
              wider than the bound, unless every B run beats every A run;
  ok          none of the above: no worse than the bound allows.
Modelled counts (the records' "counts") must be identical across every
run of both sides with the same seed; any difference is listed.

Exit status: 0 when nothing regressed and every count matched, else 1.
"""
import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUNS_DIR = os.path.join(ROOT, "build-bench", "compare")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def is_checkout(path):
    return os.path.isfile(os.path.join(path, "bench", "e2e", "run.py"))


def run_pairs(a, b, args):
    """Runs run.py in both checkouts, alternating which goes first."""
    os.makedirs(RUNS_DIR, exist_ok=True)
    out = {"A": [], "B": []}
    for i in range(args.pairs):
        order = [("A", a), ("B", b)] if i % 2 == 0 else [("B", b), ("A", a)]
        for side, checkout in order:
            path = os.path.join(RUNS_DIR, "%s-%02d.json" % (side, i))
            cmd = [sys.executable, os.path.join(checkout, "bench", "e2e",
                                                "run.py"),
                   "--seed", str(args.seed), "--out", path]
            if args.workload:
                cmd += ["--workload", args.workload]
            print("pair %d/%d: %s" % (i + 1, args.pairs, side),
                  file=sys.stderr)
            subprocess.run(cmd, stdout=subprocess.DEVNULL, check=False)
            out[side].append(path)
    return out["A"], out["B"]


def record_paths(path):
    if os.path.isdir(path):
        return sorted(glob.glob(os.path.join(path, "*.json")))
    return [path]


def load(paths):
    records = []
    for p in paths:
        with open(p) as f:
            records.append(json.load(f))
    return records


def better(a, b, direction):
    """True when b reads better than a."""
    return b > a if direction == "higher" else b < a


def compare_metric(av, bv, spec):
    q1a, med_a, q3a = quartiles(av)
    q1b, med_b, q3b = quartiles(bv)
    bound = spec["bound"]
    direction = spec["better"]
    spread_a = (q3a - q1a) / med_a if med_a else 0.0
    spread_b = (q3b - q1b) / med_b if med_b else 0.0
    pairs = list(zip(av, bv))
    wins = sum(1 for a, b in pairs if better(a, b, direction))
    worse = (med_a - med_b) if direction == "higher" else (med_b - med_a)
    worse_share = worse / med_a if med_a else 0.0
    all_better = all(better(a, b, direction) for a in av for b in bv)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and -worse > (q3a - q1a)):
        verdict = "gain"
    elif max(spread_a, spread_b) > bound and not all_better:
        verdict = "unresolved"
    elif worse_share > bound:
        verdict = "regression"
    else:
        verdict = "ok"
    return {"med_a": med_a, "q1a": q1a, "q3a": q3a, "med_b": med_b,
            "q1b": q1b, "q3b": q3b, "spread_a": spread_a,
            "spread_b": spread_b, "wins": wins, "pairs": len(pairs),
            "worse_share": worse_share, "verdict": verdict}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workload", help="comma-separated (default: all)")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        specs = json.load(f)["end_to_end"]

    if is_checkout(args.a) and is_checkout(args.b):
        a_paths, b_paths = run_pairs(args.a, args.b, args)
    else:
        a_paths, b_paths = record_paths(args.a), record_paths(args.b)
    side_a, side_b = load(a_paths), load(b_paths)
    n = min(len(side_a), len(side_b))
    if n == 0:
        sys.exit("error: no records to compare")
    side_a, side_b = side_a[:n], side_b[:n]
    if n < 10:
        print("note: %d pairs; a gain needs at least 10" % n)

    failed = False
    workloads = sorted(set(side_a[0]["workloads"]) & set(side_b[0]["workloads"]))
    print("%-14s %-14s %12s %21s %12s %21s %6s %8s  %s"
          % ("workload", "metric", "A median", "A q1..q3", "B median",
             "B q1..q3", "wins", "B worse", "verdict"))
    for w in workloads:
        for spec in specs:
            name = spec["name"]
            av = [r["workloads"][w]["end_to_end"][name]["value"]
                  for r in side_a]
            bv = [r["workloads"][w]["end_to_end"][name]["value"]
                  for r in side_b]
            c = compare_metric(av, bv, spec)
            failed = failed or c["verdict"] == "regression"
            print("%-14s %-14s %12.5g %10.5g..%-10.5g %12.5g %10.5g..%-10.5g "
                  "%2d/%-3d %7.2f%%  %s (bound %.0f%%, spread A %.1f%% B %.1f%%)"
                  % (w, name, c["med_a"], c["q1a"], c["q3a"], c["med_b"],
                     c["q1b"], c["q3b"], c["wins"], c["pairs"],
                     100 * c["worse_share"], c["verdict"],
                     100 * spec["bound"], 100 * c["spread_a"],
                     100 * c["spread_b"]))
        # Counts are a function of the seed: compare within each seed.
        reference = {}
        diffs = set()
        for r in side_a + side_b:
            counts = r["workloads"][w]["counts"]
            ref = reference.setdefault(r["seed"], counts)
            diffs |= {k for k in set(ref) | set(counts)
                      if counts.get(k) != ref.get(k)}
        if diffs:
            failed = True
            print("%-14s counts differ: %s" % (w, ", ".join(sorted(diffs))))
        else:
            print("%-14s counts identical across all %d runs"
                  % (w, 2 * n))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
