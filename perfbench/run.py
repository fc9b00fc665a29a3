#!/usr/bin/env python3
"""SysTest benchmark: one measured run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The first run configures and builds
perfbench/ (the SysTest sources plus the C++ campaign runner, runner.cc) into
.bench_build/. The campaigns are generated from --seed (workloads.py), run by
perfbench_runner, and checked; the last line of stdout is one JSON object
with `correct`, `attempted` (campaigns), `failed` (campaigns with a wrong
verdict) and `metrics` — the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
# A hung runner is stopped after this long and the run fails.
RUNNER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target):
    """Configures (once) and builds `target`; returns its path."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as done:
                    sys.stderr.write("".join(done.readlines()[-30:]))
                cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
                if step[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)  # leave no half-configured cache
                fail(f"build of {target} failed (log: {log_path})")
    return os.path.join(BUILD_DIR, target)


def run_campaigns(runner, campaigns, trace, work_dir, spans_path):
    cmd = [runner, "--trace", str(trace), "--work-dir", work_dir]
    if spans_path:
        cmd += ["--spans", spans_path]
    stdin = "".join(workloads.campaign_line(c) + "\n" for c in campaigns)
    try:
        proc = subprocess.run(cmd, input=stdin, capture_output=True,
                              text=True, timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"runner did not finish within {RUNNER_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"runner exited with code {proc.returncode}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line]
    if not lines or not lines[-1].get("summary"):
        fail("runner printed no summary")
    return lines[:-1], lines[-1]


def measure(args):
    campaigns = workloads.generate(args.workload, args.seed, args.seconds)
    try:
        workloads.check_disjoint_seed_ranges(campaigns)
    except ValueError as e:
        fail(str(e))
    runner = build("perfbench_runner")
    work_dir = os.path.join(BUILD_DIR, "work",
                            f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    spans_path = None
    if args.trace:
        # Only the latest traced run of each workload is kept.
        os.makedirs(os.path.join(BUILD_DIR, "spans"), exist_ok=True)
        spans_path = os.path.join(BUILD_DIR, "spans", f"{args.workload}.jsonl")
    results, summary = run_campaigns(runner, campaigns, args.trace, work_dir,
                                  spans_path)
    shutil.rmtree(work_dir, ignore_errors=True)
    if len(results) != len(campaigns):
        fail(f"runner reported {len(results)} of {len(campaigns)} campaigns")

    correct, failed, metrics = workloads.evaluate(
        results, summary, args.trace, [c["row"] for c in campaigns])
    for r in results:
        why = workloads.wrong_verdict(r)
        if why is not None:
            print(f"perfbench: campaign {r['id']} "
                  f"({campaigns[r['id']]['scenario']}): {why}",
                  file=sys.stderr)
    # Host CPU next to wall time on every run, so a host starved of cores is
    # not read as a regression.
    print(f"perfbench: host cpu_s={summary['cpu_s']:.3f} "
          f"wall_s={summary['wall_s']:.3f} "
          f"utilization={summary['cpu_s'] / summary['wall_s']:.3f}",
          file=sys.stderr)
    units = (workloads.PER_LAYER_UNITS if args.trace
             else workloads.END_TO_END_UNITS)
    # Beside each end-to-end metric, its value as measured, before scaling
    # to the reference host speed.
    measured = {} if args.trace else workloads.end_to_end(
        results, summary, [c["row"] for c in campaigns], at_host_speed=False)
    for name, unit in units.items():
        better = "higher" if name in workloads.HIGHER_IS_BETTER else "lower"
        note = (f"  (as measured: {measured[name]:.6g})" if name in measured
                else "")
        print(f"perfbench: {name:34} {metrics[name]:<16.6g} {unit:6} "
              f"{better} is better{note}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def self_test():
    """Runs the benchmark's own tests: the C++ wrapper tests and the Python
    workload tests."""
    tests = build("perfbench_tests")
    code = subprocess.run([tests]).returncode
    code |= subprocess.run([sys.executable, "-m", "unittest", "-q",
                            "test_workloads"], cwd=HERE).returncode
    sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    measure(args)


if __name__ == "__main__":
    main()
