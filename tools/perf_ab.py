#!/usr/bin/env python3
"""A/B performance gate: perfbench at two checkouts, judged by BENCHMARK.json.

    python3 tools/perf_ab.py <base-checkout> <head-checkout>

For every workload in the base checkout's BENCHMARK.json this runs PAIRS
pairs of `perfbench/run.py --workload W --seed <pair+1> --seconds
<run_seconds> --trace 0`, one run per checkout with the same seed, the side
that runs first alternating from pair to pair. Each end-to-end metric's
median over head's runs is compared with base's in the metric's `better`
direction against its `bound`. It prints a base/head/ratio table and exits 1
when a median is worse than its bound allows, a run is not `correct`, head's
`failed` count exceeds base's, or a run exits non-zero; otherwise 0.
"""

import json
import math
import os
import statistics
import subprocess
import sys

PAIRS = 3


def worse_by(base, head, better):
    """How much worse head is than base, as a fraction of base (<= 0 when
    head is as good or better)."""
    delta = head - base if better == "lower" else base - head
    if base == 0:
        return math.inf if delta > 0 else 0.0
    return delta / abs(base)


def verdict(base_runs, head_runs, end_to_end):
    """Judges one workload. Each run is perfbench's JSON summary, or None for
    a run that exited non-zero. Returns (rows, problems): rows of (metric,
    base median, head median, passed) and the reasons the gate fails."""
    problems = []
    for side, runs in (("base", base_runs), ("head", head_runs)):
        if any(r is None for r in runs):
            problems.append(f"a {side} run exited non-zero")
        if any(r is not None and not r["correct"] for r in runs):
            problems.append(f"a {side} run is not correct")
    base_ok = [r for r in base_runs if r is not None]
    head_ok = [r for r in head_runs if r is not None]
    base_failed = sum(r["failed"] for r in base_ok)
    head_failed = sum(r["failed"] for r in head_ok)
    if head_failed > base_failed:
        problems.append(f"head failed {head_failed} campaigns, "
                        f"base {base_failed}")
    rows = []
    if not base_ok or not head_ok:
        return rows, problems
    for m in end_to_end:
        name = m["name"]
        base = statistics.median(r["metrics"][name]["value"] for r in base_ok)
        head = statistics.median(r["metrics"][name]["value"] for r in head_ok)
        passed = worse_by(base, head, m["better"]) <= m["bound"]
        if not passed:
            problems.append(f"{name} is worse than its {m['bound']:.0%} "
                            f"bound ({m['better']} is better)")
        rows.append((name, base, head, passed))
    return rows, problems


def run(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sides = {"base": os.path.abspath(sys.argv[1]),
             "head": os.path.abspath(sys.argv[2])}
    with open(os.path.join(sides["base"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    failing = False
    for w in bench["workloads"]:
        workload = w["name"]
        runs = {"base": [], "head": []}
        for pair in range(PAIRS):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                print(f"perf_ab: {workload} seed {pair + 1} {side}",
                      file=sys.stderr, flush=True)
                runs[side].append(run(sides[side], workload, pair + 1,
                                      bench["run_seconds"]))
        rows, problems = verdict(runs["base"], runs["head"],
                                 bench["end_to_end"])
        print(f"\n{workload} (median of {PAIRS} runs per side)")
        print(f"  {'metric':14} {'base':>12} {'head':>12} {'head/base':>10}")
        for name, base, head, passed in rows:
            ratio = f"{head / base:10.3f}" if base else f"{'-':>10}"
            print(f"  {name:14} {base:12.6g} {head:12.6g} {ratio}"
                  f"{'' if passed else '  FAIL'}")
        for problem in problems:
            print(f"  FAIL {workload}: {problem}")
        failing = failing or bool(problems)
    print("\nperf_ab: " + ("FAIL" if failing else "PASS"))
    sys.exit(1 if failing else 0)


if __name__ == "__main__":
    main()
