#!/usr/bin/env python3
"""Record or check the golden state digests of the stock workloads.

Runs `state_tool digest` (examples/state_tool.cpp) for every stock
scenario board — irq_ticks, mc_pair (producer/consumer), mc_worker and
mc_quad — at all four detail levels under both ISS engines (the step()
reference and the threaded engine), and compares the 64-bit
rolling state digest (snap::digest: registers, memory, cycle counts, bus
traffic, device state — see DESIGN.md section 9) plus the final bus
cycle and retired instruction count against the values committed in
tests/golden_digests.json.

The engine is a host-side implementation detail, so both engines must
produce the identical final line for every scenario/level — the script
asserts that cross-engine equality itself, then checks the
(engine-independent) result against the single golden entry.

The simulation is a pure function of the architecture description, so
these digests are stable across hosts and compilers: any change that
moves a single cycle, register bit, IRQ delivery or bus transaction in
any stock workload fails the check loudly instead of drifting silently.
Unlike the golden-trace unit tests (which pin a handful of counters),
the digest covers the *entire* architectural state.

Usage:
    scripts/golden_state.py --check [--tool build/state_tool]
    scripts/golden_state.py --record   # after an intentional change

Exit status 1 on any mismatch (or a missing golden file in --check).
"""

import argparse
import json
import os
import re
import subprocess
import sys

SCENARIOS = ["irq_ticks", "mc_pair", "mc_worker", "mc_quad"]
LEVELS = ["functional", "static", "branch", "cache"]
ENGINES = ["step", "threaded"]
QUANTUM = 1024

FINAL_RE = re.compile(
    r"^final bus_cycle=(\d+) instructions=(\d+) digest=(0x[0-9a-f]+)$"
)


def find_tool(explicit):
    if explicit:
        return explicit
    for candidate in ("build/state_tool", "./state_tool"):
        if os.path.exists(candidate):
            return candidate
    print(
        "error: state_tool not found (build it, or pass --tool)",
        file=sys.stderr,
    )
    sys.exit(1)


def run_one(tool, scenario, level, dispatch, fi_armed=False):
    cmd = [tool, "digest", scenario, f"--level={level}",
           f"--quantum={QUANTUM}", f"--dispatch={dispatch}"]
    if fi_armed:
        cmd.append("--fi-armed")
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             check=True)
    except subprocess.CalledProcessError as e:
        print(
            f"error: `{' '.join(cmd)}` exited {e.returncode}:\n"
            f"{e.stderr or e.stdout}",
            file=sys.stderr,
        )
        sys.exit(1)
    for line in out.stdout.splitlines():
        m = FINAL_RE.match(line.strip())
        if m:
            return {
                "bus_cycle": int(m.group(1)),
                "instructions": int(m.group(2)),
                "digest": m.group(3),
            }
    print(
        f"error: no final summary line in `{' '.join(cmd)}` output:\n"
        f"{out.stdout}",
        file=sys.stderr,
    )
    sys.exit(1)


def collect(tool):
    entries = {}
    status = 0
    for scenario in SCENARIOS:
        for level in LEVELS:
            per_engine = {
                engine: run_one(tool, scenario, level, engine)
                for engine in ENGINES
            }
            baseline = per_engine[ENGINES[0]]
            for engine, result in per_engine.items():
                if result != baseline:
                    print(
                        f"ENGINE DIVERGENCE {scenario}/{level}: "
                        f"{ENGINES[0]} {baseline} vs {engine} {result}",
                        file=sys.stderr,
                    )
                    status = 1
            entries[f"{scenario}/{level}"] = baseline
    if status:
        print(
            "error: ISS engines disagree — the digest must be "
            "engine independent",
            file=sys.stderr,
        )
        sys.exit(1)
    return entries


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tool", help="path to state_tool")
    parser.add_argument(
        "--file",
        default="tests/golden_digests.json",
        help="golden record (committed in-repo)",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true",
                      help="(re)write the golden file from this build")
    mode.add_argument("--check", action="store_true",
                      help="compare this build against the golden file")
    args = parser.parse_args()

    tool = find_tool(args.tool)
    got = collect(tool)

    if args.record:
        record = {
            "comment": "Golden state digests of the stock workloads; "
            "regenerate with scripts/golden_state.py --record after an "
            "intentional behaviour change (see DESIGN.md section 9). "
            "Each entry is asserted identical across all dispatch "
            "modes before it is recorded or checked.",
            "quantum": QUANTUM,
            "dispatch_modes": ENGINES,
            "entries": got,
        }
        with open(args.file, "w") as f:
            json.dump(record, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"recorded {len(got)} golden entries to {args.file}")
        return 0

    try:
        with open(args.file) as f:
            want = json.load(f)["entries"]
    except (OSError, json.JSONDecodeError, KeyError) as e:
        print(f"error: cannot load golden file {args.file}: {e}",
              file=sys.stderr)
        return 1

    status = 0
    for key in sorted(set(want) | set(got)):
        if key not in got:
            print(f"MISSING run for golden entry {key}", file=sys.stderr)
            status = 1
            continue
        if key not in want:
            print(
                f"UNRECORDED scenario {key} (run --record)", file=sys.stderr
            )
            status = 1
            continue
        if got[key] != want[key]:
            print(
                f"MISMATCH {key}:\n  golden  {want[key]}\n"
                f"  current {got[key]}",
                file=sys.stderr,
            )
            status = 1

    # Non-perturbation probe (DESIGN.md section 12): an armed-but-idle
    # fault campaign must leave every golden digest untouched.
    armed_checked = 0
    for scenario in SCENARIOS:
        for level in LEVELS:
            key = f"{scenario}/{level}"
            if key not in got:
                continue
            armed = run_one(
                tool, scenario, level, ENGINES[0], fi_armed=True
            )
            armed_checked += 1
            if armed != got[key]:
                print(
                    f"FI-ARMED PERTURBATION {key}: an idle campaign "
                    f"changed the run\n  fi off   {got[key]}\n"
                    f"  fi armed {armed}",
                    file=sys.stderr,
                )
                status = 1

    if status == 0:
        print(f"golden-state check passed: {len(got)} scenario/level "
              f"digests match (each identical across "
              f"{len(ENGINES)} ISS engines; {armed_checked} "
              f"re-runs with an armed-idle fault campaign unchanged)")
    else:
        print(
            "golden-state check FAILED — if the behaviour change is "
            "intentional, regenerate with scripts/golden_state.py --record",
            file=sys.stderr,
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
