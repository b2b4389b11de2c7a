#!/usr/bin/env python3
"""Aggregate BENCH_*.json perf records into one markdown summary.

Every bench binary writes a BENCH_<name>.json next to its working
directory — or into $CABT_BENCH_DIR when set (one row per
workload/variant, with host MIPS and — for ISS rows — the dispatch-path
counters). This script collects them into a single BENCH_SUMMARY.md
artifact and enforces three gates:

  * engine ablation — the threaded engine must reach --min-ratio x the
    step() reference's host MIPS on every workload/level row;
  * vehicle ablation — on BENCH_ablation_iss_vs_xlat.json, the
    icache-level translated image on the V6X platform must reach
    1/VEHICLE_MAX_SLOWDOWN of the ISS's host MIPS on every workload (the
    V6X simulator's hot path must not fall back to its old speed);
  * fleet — on BENCH_fleet.json, fleet runs must be digest-reproducible
    run-to-run, report one artifact decode per distinct image, and keep
    aggregate host MIPS at M >= 2 boards at or above the single-board
    baseline.

A fourth, opt-in gate compares against a saved baseline directory:

  * baseline — with --baseline DIR, every (bench, workload, variant)
    row present in both trees must reach --baseline-min-ratio x the
    baseline host MIPS (default 0.90 for runner noise; the
    observability acceptance bar is 0.98 on the sinks-disabled
    threaded ablation rows).

METRICS_*.json companions (full obs-registry snapshots written by the
bench binaries) are folded into the summary as collapsible sections.

Usage:
    scripts/bench_report.py [--dir DIR] [--out BENCH_SUMMARY.md]
                            [--min-ratio 1.5] [--min-fleet-ratio 0.9]
                            [--baseline DIR] [--baseline-min-ratio 0.9]

Exit status 1 when a gate fails (or a required record is missing while
--require-ablation / --require-fleet is set). The default ratios give
shared CI runners scheduling-noise headroom; real regressions show up
far below them.
"""

import argparse
import glob
import json
import os
import sys

# Vehicle gate: the ISS may be at most this many times faster (host MIPS)
# than the V6X platform running the icache-level translation. Measured
# best-of-3 rows on a 4-vCPU x86-64 host: ISS/xlat-l3 between 5x (dpcm)
# and 11x (ellip) since a cache lookup is an inline compare against its
# set's MRU word (one record; 5x-25x just before it), 3x-25x since the
# V6X simulator stopped clearing per issue and jumps over sync-wait
# stalls (one record; 7x-39x just before that), 5x-38x since the
# translator drops provable MRU cache hits (three records), 11x-48x
# before that; 13x-69x before the predecoded simulator (dpcm 64x, ellip
# 69x, fir 56x, subband 52x would fail this gate).
VEHICLE_MAX_SLOWDOWN = 50.0


def load_records(directory):
    """BENCH_<name>.json -> {bench: rows}. Files without a "bench" key
    (the committed bench/e2e run.py records, BENCH_e2e_*.json) are not
    bench-binary records and are skipped silently."""
    records = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"warning: skipping {path}: {e}", file=sys.stderr)
            continue
        if not isinstance(data, dict) or "bench" not in data:
            continue
        records[data["bench"]] = data.get("rows", [])
    return records


def load_metrics(directory):
    """METRICS_<bench>.json -> {bench: {path: metric-dict}}. Malformed
    files are skipped with a warning, like load_records."""
    metrics = {}
    for path in sorted(glob.glob(os.path.join(directory, "METRICS_*.json"))):
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"warning: skipping {path}: {e}", file=sys.stderr)
            continue
        name = os.path.basename(path)[len("METRICS_"):-len(".json")]
        metrics[name] = data.get("metrics", {})
    return metrics


def render_summary(records, metrics=None):
    metrics = metrics or {}
    lines = ["# Bench summary", ""]
    for bench, rows in records.items():
        lines.append(f"## {bench}")
        lines.append("")
        have_dispatch = any("chain_hits" in r for r in rows)
        have_hot = any(r.get("hot_function") for r in rows)
        header = "| workload | variant | cycles | host MIPS |"
        rule = "| --- | --- | ---: | ---: |"
        if have_dispatch:
            header += " chain hits | trace dispatches | guard bails |"
            rule += " ---: | ---: | ---: |"
        if have_hot:
            header += " hot function |"
            rule += " --- |"
        lines.append(header)
        lines.append(rule)
        for r in rows:
            row = (
                f"| {r.get('workload', '?')} | {r.get('variant', '?')} "
                f"| {r.get('cycles', 0)} | {r.get('host_mips', 0):.2f} |"
            )
            if have_dispatch:
                # Rows from older records (or non-ISS rows) may carry a
                # partial counter set — never KeyError on them.
                if "chain_hits" in r:
                    row += (
                        f" {r.get('chain_hits', 0)} "
                        f"| {r.get('trace_dispatches', 0)} "
                        f"| {r.get('guard_bails', 0)} |"
                    )
                else:
                    row += " – | – | – |"
            if have_hot:
                row += f" {r.get('hot_function') or '–'} |"
            lines.append(row)
        lines.append("")
        bench_metrics = metrics.get(bench)
        if bench_metrics:
            lines.append("<details>")
            lines.append(
                f"<summary>metrics registry ({len(bench_metrics)} "
                "entries)</summary>"
            )
            lines.append("")
            lines.append("| metric | type | value |")
            lines.append("| --- | --- | ---: |")
            for mpath in sorted(bench_metrics):
                m = bench_metrics[mpath]
                mtype = m.get("type", "?")
                if mtype == "histogram":
                    value = (
                        f"count={m.get('count', 0)} sum={m.get('sum', 0)} "
                        f"min={m.get('min', 0)} max={m.get('max', 0)}"
                    )
                else:
                    value = m.get("value", 0)
                lines.append(f"| {mpath} | {mtype} | {value} |")
            lines.append("")
            lines.append("</details>")
            lines.append("")
    return "\n".join(lines) + "\n"


def check_dispatch_gate(records, min_ratio):
    """The threaded engine must reach min_ratio x the step() reference's
    host MIPS on every workload/level row of the engine ablation.

    Returns (compared_pairs, failures), or None when there is no
    ablation record at all. compared_pairs == 0 means the record exists
    but held no step/threaded pairs — the caller must treat that as a
    gate failure, not a pass (it would otherwise go vacuously green if
    the bench's variant naming ever drifted).
    """
    rows = records.get("ablation_dispatch")
    if rows is None:
        return None  # caller decides whether a missing record is fatal
    by_key = {}
    for r in rows:
        variant = r.get("variant", "")
        if "/" not in variant:
            continue
        level, engine = variant.rsplit("/", 1)
        by_key[(r.get("workload"), level, engine)] = r.get("host_mips", 0.0)
    compared = 0
    failures = []
    for (workload, level, engine), step_mips in sorted(by_key.items()):
        threaded_mips = by_key.get((workload, level, "threaded"))
        if engine != "step" or threaded_mips is None or step_mips <= 0:
            continue
        compared += 1
        ratio = threaded_mips / step_mips
        if ratio < min_ratio:
            failures.append(
                f"{workload}/{level}: threaded {threaded_mips:.2f} MIPS "
                f"vs step {step_mips:.2f} MIPS (ratio {ratio:.2f} < "
                f"{min_ratio:.2f})"
            )
    return compared, failures


def check_vehicle_gate(records, max_slowdown):
    """Per workload, xlat-l3-host must reach iss-host / max_slowdown.

    Returns (compared_pairs, failures), or None when there is no
    vehicle-ablation record at all. Zero compared pairs fails at the
    caller, as with the other gates.
    """
    rows = records.get("ablation_iss_vs_xlat")
    if rows is None:
        return None
    by_key = {
        (r.get("workload"), r.get("variant")): r.get("host_mips", 0.0)
        for r in rows
    }
    compared = 0
    failures = []
    for (workload, variant), iss_mips in sorted(by_key.items()):
        xlat_mips = by_key.get((workload, "xlat-l3-host"))
        if variant != "iss-host" or xlat_mips is None or iss_mips <= 0:
            continue
        compared += 1
        slowdown = iss_mips / xlat_mips if xlat_mips > 0 else float("inf")
        if slowdown > max_slowdown:
            failures.append(
                f"{workload}: xlat-l3 {xlat_mips:.3f} MIPS vs iss "
                f"{iss_mips:.2f} MIPS ({slowdown:.1f}x slower > "
                f"{max_slowdown:.0f}x)"
            )
    return compared, failures


def check_fleet_gate(records, min_ratio):
    """Three invariants over BENCH_fleet.json rows:

      * every repeat of a sweep point carries the same digest (fleet
        runs are bit-reproducible run-to-run);
      * every row reports artifact_decodes == images (the fleet shared
        one program artifact per distinct image — the decode-once
        guarantee);
      * best-of-repeats aggregate host MIPS at every fleet size M >= 2
        reaches min_ratio x the best single-board row (scheduling
        boards over the pool must not cost what it parallelizes;
        best-of-repeats keeps one descheduled run on a loaded runner
        from failing the sweep).

    Returns (compared_pairs, failures), or None when there is no fleet
    record at all. Zero compared pairs fails at the caller, as with the
    other gates.
    """
    rows = records.get("fleet")
    if rows is None:
        return None
    compared = 0
    failures = []
    digests = {}  # (workload, boards) -> (first digest, first variant)
    single_best = {}  # workload -> best single-board host MIPS
    for r in rows:
        key = (r.get("workload"), r.get("boards"))
        digest = r.get("digest")
        if digest is not None:
            first = digests.setdefault(key, (digest, r.get("variant")))
            if first[0] != digest:
                failures.append(
                    f"{key[0]}/boards_{key[1]}: digest {digest} != "
                    f"{first[0]} (from {first[1]}) — fleet runs are not "
                    "reproducible"
                )
            else:
                compared += 1
        decodes = r.get("artifact_decodes")
        images = r.get("images")
        if decodes is not None and images is not None:
            compared += 1
            if decodes != images:
                failures.append(
                    f"{key[0]}/{r.get('variant')}: {decodes} decodes for "
                    f"{images} images — artifact sharing broke"
                )
        if r.get("boards") == 1:
            mips = r.get("host_mips", 0.0)
            workload = r.get("workload")
            single_best[workload] = max(single_best.get(workload, 0.0), mips)
    fleet_best = {}  # (workload, boards) -> best aggregate host MIPS
    for r in rows:
        boards = r.get("boards")
        if boards is None or boards < 2:
            continue
        key = (r.get("workload"), boards)
        fleet_best[key] = max(
            fleet_best.get(key, 0.0), r.get("host_mips", 0.0)
        )
    for (workload, boards), mips in sorted(fleet_best.items()):
        base = single_best.get(workload, 0.0)
        if base <= 0 or mips <= 0:
            continue
        compared += 1
        ratio = mips / base
        if ratio < min_ratio:
            failures.append(
                f"{workload}/fleet_{boards}: aggregate {mips:.2f} MIPS "
                f"vs single-board {base:.2f} MIPS (ratio {ratio:.2f} "
                f"< {min_ratio:.2f})"
            )
    return compared, failures


def check_baseline_gate(records, baseline_records, min_ratio):
    """Every (bench, workload, variant) row present in both trees must
    reach min_ratio x the baseline host MIPS.

    Returns (compared_pairs, failures). Rows only one side has (new
    benches, renamed variants) are skipped — the gate compares perf, it
    does not pin the record schema. Zero compared pairs is a failure at
    the caller (nothing overlapped — wrong baseline directory?).
    """
    compared = 0
    failures = []
    for bench, rows in sorted(records.items()):
        base_rows = {
            (r.get("workload"), r.get("variant")): r.get("host_mips", 0.0)
            for r in baseline_records.get(bench, [])
        }
        for r in rows:
            key = (r.get("workload"), r.get("variant"))
            base_mips = base_rows.get(key)
            mips = r.get("host_mips", 0.0)
            if base_mips is None or base_mips <= 0 or mips <= 0:
                continue  # modeled-only rows report 0 MIPS; skip them
            compared += 1
            ratio = mips / base_mips
            if ratio < min_ratio:
                failures.append(
                    f"{bench}/{key[0]}/{key[1]}: {mips:.2f} MIPS vs "
                    f"baseline {base_mips:.2f} MIPS (ratio {ratio:.2f} "
                    f"< {min_ratio:.2f})"
                )
    return compared, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", default=".", help="where BENCH_*.json live")
    parser.add_argument("--out", default="BENCH_SUMMARY.md")
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=1.5,
        help="minimum threaded/step host-MIPS ratio per ablation row "
        "(measured rows sit at 2.2x-6.0x; the rest is runner noise)",
    )
    parser.add_argument(
        "--require-ablation",
        action="store_true",
        help="fail when BENCH_ablation_dispatch.json or "
        "BENCH_ablation_iss_vs_xlat.json is absent",
    )
    parser.add_argument(
        "--min-fleet-ratio",
        type=float,
        default=0.9,
        help="minimum fleet-aggregate/single-board host-MIPS ratio at "
        "M >= 2 boards (noise tolerance; real fleets sit well above 1)",
    )
    parser.add_argument(
        "--require-fleet",
        action="store_true",
        help="fail when BENCH_fleet.json is absent",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="DIR",
        help="directory of baseline BENCH_*.json records to gate "
        "host-MIPS regressions against",
    )
    parser.add_argument(
        "--baseline-min-ratio",
        type=float,
        default=0.9,
        help="minimum current/baseline host-MIPS ratio per row (use "
        "0.98 on a quiet machine for the 2%% observability budget)",
    )
    args = parser.parse_args()

    records = load_records(args.dir)
    if not records:
        # An empty bench directory is an error only when a gate depends
        # on a record: a docs-only CI run (or a fresh checkout) gets an
        # explicit "no records" summary and a clean exit instead of a
        # crash, while --require-* still fails loudly below.
        with open(args.out, "w") as f:
            f.write(
                "# Bench summary\n\nNo BENCH_*.json records found in "
                f"`{args.dir}`.\n"
            )
        print(f"wrote {args.out} (no bench records found in {args.dir})")
        if args.require_ablation:
            print(
                "error: no BENCH_*.json records, but a gate was requested",
                file=sys.stderr,
            )
            return 1
        return 0
    metrics = load_metrics(args.dir)
    with open(args.out, "w") as f:
        f.write(render_summary(records, metrics))
    print(
        f"wrote {args.out} ({len(records)} bench records, "
        f"{len(metrics)} metrics snapshots)"
    )

    dispatch_gate = {
        "name": "dispatch",
        "gate": check_dispatch_gate(records, args.min_ratio),
        "required": args.require_ablation,
        "record": "BENCH_ablation_dispatch.json",
        "empty": "no step/threaded pairs",
        "passed": f"threaded >= {args.min_ratio:.2f} x step on {{n}} "
        "workload/level rows",
    }
    vehicle_gate = {
        "name": "vehicle",
        "gate": check_vehicle_gate(records, VEHICLE_MAX_SLOWDOWN),
        "required": args.require_ablation,
        "record": "BENCH_ablation_iss_vs_xlat.json",
        "empty": "no iss-host/xlat-l3-host pairs",
        "passed": f"xlat-l3 >= iss / {VEHICLE_MAX_SLOWDOWN:.0f} on {{n}} "
        "workloads",
    }
    fleet_gate = {
        "name": "fleet",
        "gate": check_fleet_gate(records, args.min_fleet_ratio),
        "required": args.require_fleet,
        "record": "BENCH_fleet.json",
        "empty": "no digest/decode/throughput rows",
        "passed": "fleet gate held on {n} checks (digests reproducible, "
        "one decode per image, aggregate MIPS >= single board)",
    }
    status = 0
    for g in (dispatch_gate, vehicle_gate, fleet_gate):
        if g["gate"] is None:
            if g["required"]:
                print(f"error: {g['record']} missing", file=sys.stderr)
                status = 1
            else:
                print(f"note: no {g['name']} record; gate skipped")
            continue
        compared, failures = g["gate"]
        if compared == 0:
            print(
                f"error: {g['record']} held {g['empty']} — variant "
                "naming drifted?",
                file=sys.stderr,
            )
            status = 1
        elif failures:
            print(f"{g['name']} gate FAILED:", file=sys.stderr)
            for f_ in failures:
                print(f"  {f_}", file=sys.stderr)
            status = 1
        else:
            print(
                f"{g['name']} gate passed: " + g["passed"].format(n=compared)
            )
    if args.baseline is not None:
        baseline_records = load_records(args.baseline)
        if not baseline_records:
            print(
                f"error: no BENCH_*.json records in baseline "
                f"{args.baseline}",
                file=sys.stderr,
            )
            status = 1
        else:
            compared, failures = check_baseline_gate(
                records, baseline_records, args.baseline_min_ratio
            )
            if compared == 0:
                print(
                    "error: baseline shares no rows with the current "
                    "records — wrong directory?",
                    file=sys.stderr,
                )
                status = 1
            elif failures:
                print("baseline gate FAILED:", file=sys.stderr)
                for f_ in failures:
                    print(f"  {f_}", file=sys.stderr)
                status = 1
            else:
                print(
                    f"baseline gate passed: {compared} rows at >= "
                    f"{args.baseline_min_ratio:.2f}x baseline host MIPS"
                )
    return status


if __name__ == "__main__":
    sys.exit(main())
