#!/usr/bin/env python3
"""End-to-end benchmark of cabt: builds bench/e2e, runs workloads, checks.

    python3 bench/e2e/run.py [--workload W[,W...]] [--seed N] [--seconds S]
                             [--trace 0|1] [--out FILE]

Run from the repository root or anywhere else: paths resolve against the
repository this file lives in. The build goes to build-bench/ at that
root. Each workload runs in its own process (cabt_bench), so peak memory
is per workload. The script prints one table row per metric
(`metric  workload  value  unit  samples`) and, as its last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones (and the trace files land in
build-bench/trace/).
With several workloads each metric name is prefixed by its workload.

Exit status: 0 when every check passed, 1 when a check failed or a
workload crashed, 2 when the repository or the build is missing.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-bench")
TRACE_DIR = os.path.join(BUILD, "trace")
WORKLOADS = ["paper_xlat", "paper_iss", "soc_multicore", "fuzz_campaign"]
# Every run must end within 180 s; a workload measures for --seconds and
# sets up in a few more.
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print("error: " + message, file=sys.stderr)
    sys.exit(code)


def load_benchmark_json():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def build():
    """Configures (once) and builds cabt_bench; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("no cabt sources at %s (CMakeLists.txt and src/ are needed "
            "to build the benchmark)" % ROOT)
    if shutil.which("cmake") is None:
        die("cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "cabt_bench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "cabt_bench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True).stdout.strip()
        return sha + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_workload(exe, workload, args, tmp_dir):
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp_dir]
    if args.trace:
        cmd += ["--trace-dir", TRACE_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: %s timed out" % workload, file=sys.stderr)
        return None
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print("error: %s exited %d without a record" % (workload,
                                                        proc.returncode),
              file=sys.stderr)
        return None
    record["exit_code"] = proc.returncode
    return record


def write_layer_table(record, path):
    """Self time per layer over the traced rounds, largest first."""
    wall = record["traced_wall_s"]
    rows = sorted(record["self_s"].items(), key=lambda kv: -kv[1])
    with open(path, "w") as f:
        f.write("# %s seed %d: self time per layer over %d traced rounds "
                "(%.3f s wall; untraced half %.3f s)\n"
                % (record["workload"], record["seed"],
                   record["traced_rounds"], wall, record["untraced_wall_s"]))
        f.write("%-22s %12s %8s\n" % ("layer", "self_s", "share"))
        for name, s in rows:
            f.write("%-22s %12.6f %7.2f%%\n" % (name, s, 100.0 * s / wall))
        f.write("%-22s %12.6f %7.2f%%\n"
                % ("sum", sum(s for _, s in rows),
                   100.0 * sum(s for _, s in rows) / wall))


def main():
    bench = load_benchmark_json() or {}
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default=",".join(WORKLOADS),
                   help="comma-separated workloads (default: all)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   default=bench.get("run_seconds", 20))
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", help="write the merged record here")
    args = p.parse_args()
    workloads = [w for w in args.workload.split(",") if w]
    for w in workloads:
        if w not in WORKLOADS:
            p.error("unknown workload %r (choose from %s)"
                    % (w, ", ".join(WORKLOADS)))

    exe = build()
    tmp_dir = os.path.join(BUILD, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)

    section = "per_layer" if args.trace else "end_to_end"
    declared = [m["name"] for m in bench.get(section, [])]
    records = {}
    correct = True
    attempted = failed = 0
    metrics = {}
    for w in workloads:
        r = run_workload(exe, w, args, tmp_dir)
        if r is None:
            sys.exit(1)
        records[w] = r
        correct = correct and r["failed"] == 0 and r["exit_code"] == 0
        attempted += int(r["attempted"])
        failed += int(r["failed"])
        for what in r["failures"]:
            print("FAILED %s: %s" % (w, what), file=sys.stderr)
        got = r[section]
        missing = [m for m in declared if m not in got]
        if missing:
            print("error: %s did not report %s" % (w, ", ".join(missing)),
                  file=sys.stderr)
            correct = False
        for name, m in got.items():
            key = name if len(workloads) == 1 else w + "." + name
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
        if args.trace:
            write_layer_table(r, os.path.join(
                TRACE_DIR, "%s-seed%d.layers.txt" % (w, args.seed)))

    print("%-28s %-14s %16s %-12s %s"
          % ("metric", "workload", "value", "unit", "samples"))
    for w, r in records.items():
        for group in (section, "details"):
            for name, m in r[group].items():
                print("%-28s %-14s %16.6g %-12s %s"
                      % (name, w, m["value"], m["unit"],
                         int(m["samples"]) if "samples" in m else ""))

    if args.out:
        merged = {"git_sha": git_sha(), "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "workloads": records}
        with open(args.out, "w") as f:
            json.dump(merged, f, indent=1, sort_keys=True)
            f.write("\n")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
