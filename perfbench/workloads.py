"""Workload definitions, campaign generation and metric arithmetic.

Pure functions only (no processes, no clock), so test_workloads.py can pin
them. run.py feeds the generated campaigns to the C++ runner and hands its
per-campaign results back to evaluate().
"""

import math
import statistics

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

# The paper's per-campaign execution budget (Table 2).
PAPER_BUDGET = 100_000

# Stateful campaigns: a total distinct-state budget no campaign can reach,
# and a hot level small enough that the vnext and samplerepl campaigns
# compact it several times each.
MAX_VISITED = 1 << 26
MAX_VISITED_HOT = 1 << 13

# The highest percentile reported needs at least this many samples beyond it.
MIN_BEYOND = 10

# An untraced run times every campaign this many times, in whole passes over
# the campaign list, and keeps its median time. Other tenants of a shared
# host slow it down or leave it alone for seconds at a time; the median
# ignores a spell that covers one of a campaign's passes.
PASSES = 3


def splitmix64(state):
    """One SplitMix64 step: returns (output, next state), as core/rng.h."""
    state = (state + GOLDEN) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31), state


def campaign_seed(workload_seed, index):
    """Base seed of campaign `index`: SplitMix64 of the workload seed mixed
    with the index. Consecutive integers would not do: the engine seeds
    iteration i with SplitMix64(base + i), so bases 1, 2, 3 replay one
    execution sequence shifted by one."""
    first, state = splitmix64(workload_seed & MASK64)
    out, _ = splitmix64((first ^ ((index + 1) * GOLDEN)) & MASK64)
    return out


def check_disjoint_seed_ranges(campaigns):
    """Raises ValueError if two campaigns' iteration seed ranges
    [base, base + budget) overlap or one wraps past 2**64."""
    spans = sorted((c["seed"], c["seed"] + c["iterations"], c["id"])
                   for c in campaigns)
    for lo, hi, cid in spans:
        if hi > 1 << 64:
            raise ValueError(f"campaign {cid}: seed range wraps past 2**64")
    for (lo1, hi1, id1), (lo2, _, id2) in zip(spans, spans[1:]):
        if lo2 < hi1:
            raise ValueError(f"campaigns {id1} and {id2}: seed ranges overlap")


# ---------------------------------------------------------------------------
# Workloads. A bughunt row is ((scenario, params), seeds per round); a control
# row is (scenario, params, execution budget, extra campaign fields).

# Table 2 rows, grouped by how long a 100k-execution random campaign takes
# to its bug, with the seeds each gets per round. Rows found within a few
# executions get few seeds: their times are a few discrete values, so the
# median and the 90th percentile are placed among the rows whose times spread
# continuously. Of those, the rows that cost a few milliseconds a campaign
# get the most seeds, so that a run holds many samples near both
# percentiles for its time.
BUGHUNT_ROWS = [
    # Found within about five executions.
    *[(("mtable-migration", {"bug": b}), 4) for b in (
        "EnsurePartitionSwitchedFromPopulated", "DeletePrimaryKey",
        "InsertBehindMigrator")],
    (("samplerepl-liveness", {}), 4),
    (("fabric-failover", {}), 4),
    (("fabric-pipeline", {}), 4),
    # Tens to hundreds of executions, milliseconds to tens of milliseconds.
    (("mtable-migration", {"bug": "QueryStreamedLock"}), 24),
    *[(("mtable-migration", {"bug": b}), 120) for b in (
        "DeleteNoLeaveTombstonesEtag", "MigrateSkipPreferOld")],
    (("vnext-liveness", {}), 24),
    (("samplerepl-safety", {}), 120),
    (("samplerepl-node-crash", {}), 120),
]
# Thousands of executions, a tenth of a second to seconds: one seed each per
# run, however many rounds it has, timed in a single pass (repeating them
# would take most of a run; they enter the end-to-end metrics through four
# of the sixteen rows' rates only).
BUGHUNT_DEEP_ROWS = [
    ("mtable-migration", {"bug": b}) for b in (
        "QueryAtomicFilterShadowing", "QueryStreamedFilterShadowing",
        "MigrateSkipUseNewWithTombstones", "TombstoneOutputETag")]
# Seconds of --seconds per round, all passes included; the deep rows take
# about half as long as one round.
BUGHUNT_ROUND_S = 10

# Traced runs also run the vnext row on two workers sharing the sharded
# visited set (ParallelTestingEngine::Run), for the explore layer.
STATEFUL_ROWS = [
    ("vnext-fixed", {}, 20, {"explore_threads": 2}),
    ("samplerepl-fixed",
     {"nodes": "5", "requests": "4", "value-space": "5"}, 200, {}),
    ("mtable-migration", {}, 1500, {"payloads": 1}),
]
# The fabric and mtable campaigns take a few milliseconds each, the vnext
# ones about sixty, and the samplerepl ones anything from ten to a hundred
# and twenty. Three vnext and two samplerepl campaigns per cycle put the
# median inside the narrow vnext band and the 90th percentile inside the
# samplerepl tail above it, not on the sparse edge between two rows.
GUIDED_ROWS = [
    ("fabric-primary-crash-during-reconfig", {}, 300, {}),
    ("mtable-migrator-crash-mid-move", {}, 200, {}),
    ("samplerepl-partition-heal", {}, 75, {}),
    ("samplerepl-partition-heal", {}, 75, {}),
    ("vnext-repair-under-crash", {}, 20, {}),
    ("vnext-repair-under-crash", {}, 20, {}),
    ("vnext-repair-under-crash", {}, 20, {}),
]

# Control workloads: their rows, the fields every campaign shares, and
# campaigns per second of --seconds (all passes included). Every workload
# runs at least 10 * MIN_BEYOND campaigns so its p90 has ten samples beyond
# it.
CONTROL_WORKLOADS = {
    "stateful": (STATEFUL_ROWS, {"stateful": 1, "max_visited": MAX_VISITED,
                                 "max_visited_hot": MAX_VISITED_HOT}, 5.5),
    "guided": (GUIDED_ROWS, {"strategy": "mutate", "metrics": 1, "corpus": 1},
               4.0),
}

WORKLOADS = ("bughunt", "stateful", "guided")


def _campaign(index, row, seed, scenario, params, iterations, expect,
              **extra):
    c = {"id": index, "row": row, "passes": PASSES,
         "expect": expect, "scenario": scenario,
         "strategy": "random", "seed": campaign_seed(seed, index),
         "iterations": iterations, "stateful": 0, "payloads": 0,
         "max_visited": 0, "max_visited_hot": 0, "explore_threads": 0,
         "metrics": 0, "corpus": 0}
    c.update(extra)
    c["params"] = dict(params)
    return c


def generate(workload, seed, seconds):
    """The campaign list of one run: deterministic in (workload, seed,
    seconds)."""
    out = []
    if workload == "bughunt":
        rounds = max(1, round(seconds / BUGHUNT_ROUND_S))
        for _ in range(rounds):
            for row, ((scenario, params), seeds) in enumerate(BUGHUNT_ROWS):
                for _ in range(seeds):
                    out.append(_campaign(len(out), row, seed, scenario,
                                         params, PAPER_BUDGET, "bug"))
        for row, (scenario, params) in enumerate(BUGHUNT_DEEP_ROWS,
                                                 len(BUGHUNT_ROWS)):
            out.append(_campaign(len(out), row, seed, scenario, params,
                                 PAPER_BUDGET, "bug", passes=1))
        return out
    if workload not in CONTROL_WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"known: {', '.join(WORKLOADS)}")
    rows, shared, per_s = CONTROL_WORKLOADS[workload]
    count = max(10 * MIN_BEYOND, round(per_s * seconds))
    for i in range(count):
        row = rows[i % len(rows)]
        scenario, params, iterations, extra = row
        # A row listed twice is still one row of the rates' mean.
        out.append(_campaign(i, rows.index(row), seed, scenario, params,
                             iterations, "clean", **shared, **extra))
    return out


def campaign_line(c):
    """The runner's input format: key=value tokens on one line. The row
    index stays with run.py."""
    fields = [f"{k}={v}" for k, v in c.items() if k not in ("params", "row")]
    fields += [f"param.{k}={v}" for k, v in sorted(c["params"].items())]
    return " ".join(fields)


# ---------------------------------------------------------------------------
# Metric arithmetic.

def percentile(values, q):
    """Nearest-rank q-quantile of `values` (math.inf marks a campaign past
    every limit). Refuses a percentile with fewer than MIN_BEYOND samples
    beyond it."""
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(f"p{round(q * 100)} of {n} samples has only "
                         f"{n - rank} beyond it; need {MIN_BEYOND}")
    return sorted(values)[rank - 1]


def wrong_verdict(r):
    """Why campaign result `r` has a wrong verdict, or None."""
    if r["expect_bug"] and not r["bug_found"]:
        return "missed bug"
    if not r["expect_bug"] and r["bug_found"]:
        return "bug reported on a fixed control"
    if not r.get("replay_ok", False):
        return "witness did not reproduce on replay"
    if not r.get("corpus_reloaded", True):
        return "saved corpus did not load back"
    if not r.get("repeated", True):
        return "a pass did not repeat the campaign's counts"
    if not r.get("explore_clean", True):
        return "bug reported on a fixed control by the parallel engine"
    return None


def _ratio(num, den):
    return num / den if den else 0.0


# Timings the runner reports once per pass.
PER_PASS = ("setup_s", "cpu_s", "explore_cpu_s", "replay_s", "witness_states_s")


# Nanoseconds per step of the runner's pointer chase (HostSpeed in
# runner.cc) on a quiet host: the speed every end-to-end time is expressed
# at.
REFERENCE_CHASE_NS = 5.0


def median_of_passes(r, at_host_speed=True):
    """Campaign result `r` with each per-pass timing replaced by its median
    over the passes; with `at_host_speed`, each pass's timings are first
    scaled from the host speed measured just before that pass to the
    reference speed."""
    scale = [REFERENCE_CHASE_NS / ns if at_host_speed else 1.0
             for ns in r["chase_ns"]]
    return {**r, **{k: statistics.median(t * f for t, f in zip(r[k], scale))
                    for k in PER_PASS if k in r}}


def row_rate(results, rows, count_key, seconds_key):
    """Geometric mean over rows of each row's sum(count) / sum(seconds).
    Every row weighs the same however many executions its campaigns happened
    to need, so the figure does not move with the mix a seed draws."""
    totals = {}
    for r, row in zip(results, rows):
        if count_key in r:
            count, seconds = totals.get(row, (0, 0.0))
            totals[row] = (count + r[count_key], seconds + r[seconds_key])
    rates = [_ratio(count, seconds) for count, seconds in totals.values()]
    if not rates or min(rates) <= 0:
        return 0.0
    return math.exp(sum(math.log(x) for x in rates) / len(rates))


def end_to_end(results, summary, rows, at_host_speed=True):
    """End-to-end metrics of an untraced run (see README.md): at the
    reference host speed, or as measured. `rows[i]` is the workload row
    campaign i was drawn from."""
    results = [median_of_passes(r, at_host_speed) for r in results]
    ttfb = [r["cpu_s"] if r["bug_found"] or not r["expect_bug"] else math.inf
            for r in results]
    if any(r["states"] for r in results):
        states_per_s = row_rate(results, rows, "states", "explore_cpu_s")
    else:
        states_per_s = row_rate(results, rows, "witness_states",
                                "witness_states_s")
    return {
        "ttfb_p50_s": percentile(ttfb, 0.50),
        "ttfb_p90_s": percentile(ttfb, 0.90),
        "exec_per_s": row_rate(results, rows, "executions", "explore_cpu_s"),
        "steps_per_s": row_rate(results, rows, "steps", "explore_cpu_s"),
        "states_per_s": states_per_s,
        "replay_s": sum(r.get("replay_s", 0.0) for r in results),
        "setup_s": sum(r["setup_s"] for r in results),
        "peak_rss_mb": summary["peak_rss_kb"] / 1024.0,
    }


def per_layer(results, summary, failed):
    """Per-layer metrics of a traced run (see README.md)."""
    s = summary
    n = len(results)
    execs = s["executions"]
    steps = s["steps"]
    decisions = s["decisions"]
    inserts = s["inserts"]
    witnesses = [r for r in results if "witness_decisions" in r]
    traced_s = sum(r.get("traced_explore_s", 0.0) for r in results)
    untraced_s = sum(r["explore_s"] for r in results)
    traced_execs = sum(r.get("traced_executions", 0) for r in results)
    untraced_execs = sum(r["executions"] for r in results)
    return {
        "api.resolve_ns": _ratio(s["resolve_ns"], s["resolves"]),
        "harness.calls": s["harness_calls"],
        "harness.busy_ns": s["harness_busy_ns"],
        "harness.calls_per_exec": _ratio(s["harness_calls"], execs),
        "core.runtime.executions": execs,
        "core.runtime.steps": steps,
        "core.runtime.busy_ns": s["run_one_ns"],
        "core.runtime.self_ns_per_step":
            _ratio(max(0, s["run_one_ns"] - s["child_ns"]), steps),
        "core.runtime.recycled_frac": _ratio(s["recycled"], execs),
        "core.runtime.pruned_frac": _ratio(s["pruned"], execs),
        "core.runtime.faults_per_exec": _ratio(s["faults"], execs),
        "core.strategy.decisions": decisions,
        "core.strategy.fault_queries": s["fault_queries"],
        "core.strategy.busy_ns":
            s["decisions_busy_ns"] + s["fault_queries_busy_ns"],
        "core.strategy.ns_per_decision":
            _ratio(s["decisions_busy_ns"], decisions),
        "core.strategy.prepare_ns": _ratio(s["prepare_ns"], execs),
        "core.fingerprint.inserts": inserts,
        "core.fingerprint.busy_ns": s["inserts_busy_ns"],
        "core.fingerprint.ns_per_insert": _ratio(s["inserts_busy_ns"], inserts),
        "core.fingerprint.novel_frac": _ratio(s["novel_inserts"], inserts),
        "core.fingerprint.run_probes": s["run_probes"],
        "core.fingerprint.bloom_fp_frac":
            _ratio(s["bloom_fp"], s["run_probes"]),
        "core.fingerprint.compactions": s["compactions"],
        "core.fingerprint.merges": s["merges"],
        "core.trace.witness_decisions":
            sum(r["witness_decisions"] for r in witnesses),
        "core.trace.bytes": sum(r["witness_bytes"] for r in witnesses),
        "core.trace.serialize_ns":
            _ratio(sum(r["serialize_ns"] for r in witnesses), len(witnesses)),
        "core.trace.deserialize_ns":
            _ratio(sum(r["deserialize_ns"] for r in witnesses), len(witnesses)),
        "core.trace.replay_ns_per_step":
            _ratio(sum(r["replay_ns"] for r in witnesses),
                   sum(r["replay_steps"] for r in witnesses)),
        "core.trace.reproduced_frac":
            _ratio(sum(1 for r in results if r.get("replay_ok")), n),
        "corpus.add_calls": s["corpus_add_calls"],
        "corpus.add_ns": _ratio(s["corpus_add_ns"], s["corpus_add_calls"]),
        "corpus.added_frac": _ratio(s["corpus_added"], s["corpus_add_calls"]),
        "corpus.sampled": s["corpus_sampled"],
        "corpus.entries": s["corpus_entries"],
        "corpus.save_ns": _ratio(s["corpus_save_ns"], s["corpus_saves"]),
        "corpus.load_ns": _ratio(s["corpus_load_ns"], s["corpus_loads"]),
        "obs.snapshot_ns": _ratio(s["snapshot_ns"], s["snapshots"]),
        "explore.workers": s["explore_workers"],
        "explore.worker_busy_s": s["worker_busy_s"],
        "explore.worker_idle_s": s["worker_idle_s"],
        "explore.imbalance": s["imbalance"],
        "explore.replay_verify_ns": s["replay_verify_ns"],
        "host.cpu_s": s["cpu_s"],
        "host.utilization": _ratio(s["cpu_s"], s["wall_s"]),
        "bench.trace_overhead_frac":
            _ratio(_ratio(traced_s, traced_execs),
                   _ratio(untraced_s, untraced_execs)) - 1.0,
        "bench.failed_frac": _ratio(failed, n),
    }


def evaluate(results, summary, trace, rows):
    """Checks every campaign and returns (correct, failed, metrics)."""
    failed = sum(1 for r in results if wrong_verdict(r) is not None)
    # A reported bug on a control, a witness that does not reproduce or a
    # pass that does not repeat the first is a wrong output, not just a
    # missed search: the run is not correct.
    correct = all(wrong_verdict(r) in (None, "missed bug") for r in results)
    # A saturated visited set makes the hit rates dishonest.
    correct = correct and not any(r["saturated"] for r in results)
    if trace:
        correct = correct and summary.get("spans_written", False)
        correct = correct and all(r.get("fidelity_ok") for r in results)
        metrics = per_layer(results, summary, failed)
    else:
        metrics = end_to_end(results, summary, rows)
        for name, value in metrics.items():
            if not math.isfinite(value):
                # More than the tail's share of campaigns missed their bug:
                # the percentile is past every limit, so report the whole
                # run's wall time as its lower bound and fail the run.
                metrics[name] = summary["wall_s"]
                correct = False
    return correct, failed, metrics


END_TO_END_UNITS = {
    "ttfb_p50_s": "s", "ttfb_p90_s": "s", "exec_per_s": "1/s",
    "steps_per_s": "1/s", "states_per_s": "1/s", "replay_s": "s",
    "setup_s": "s", "peak_rss_mb": "MiB",
}
HIGHER_IS_BETTER = {
    "exec_per_s", "steps_per_s", "states_per_s",
    "core.runtime.executions", "core.runtime.steps",
    "core.runtime.recycled_frac", "core.runtime.pruned_frac",
    "core.runtime.faults_per_exec", "core.strategy.decisions",
    "core.strategy.fault_queries", "core.fingerprint.inserts",
    "core.fingerprint.novel_frac", "core.trace.reproduced_frac",
    "corpus.add_calls", "corpus.added_frac", "corpus.sampled",
    "corpus.entries", "explore.workers", "host.utilization",
}

PER_LAYER_UNITS = {
    "api.resolve_ns": "ns",
    "harness.calls": "count", "harness.busy_ns": "ns",
    "harness.calls_per_exec": "ratio",
    "core.runtime.executions": "count", "core.runtime.steps": "count",
    "core.runtime.busy_ns": "ns", "core.runtime.self_ns_per_step": "ns",
    "core.runtime.recycled_frac": "ratio", "core.runtime.pruned_frac": "ratio",
    "core.runtime.faults_per_exec": "ratio",
    "core.strategy.decisions": "count", "core.strategy.fault_queries": "count",
    "core.strategy.busy_ns": "ns", "core.strategy.ns_per_decision": "ns",
    "core.strategy.prepare_ns": "ns",
    "core.fingerprint.inserts": "count", "core.fingerprint.busy_ns": "ns",
    "core.fingerprint.ns_per_insert": "ns",
    "core.fingerprint.novel_frac": "ratio",
    "core.fingerprint.run_probes": "count",
    "core.fingerprint.bloom_fp_frac": "ratio",
    "core.fingerprint.compactions": "count", "core.fingerprint.merges": "count",
    "core.trace.witness_decisions": "count", "core.trace.bytes": "bytes",
    "core.trace.serialize_ns": "ns", "core.trace.deserialize_ns": "ns",
    "core.trace.replay_ns_per_step": "ns",
    "core.trace.reproduced_frac": "ratio",
    "corpus.add_calls": "count", "corpus.add_ns": "ns",
    "corpus.added_frac": "ratio", "corpus.sampled": "count",
    "corpus.entries": "count", "corpus.save_ns": "ns", "corpus.load_ns": "ns",
    "obs.snapshot_ns": "ns",
    "explore.workers": "count", "explore.worker_busy_s": "s",
    "explore.worker_idle_s": "s", "explore.imbalance": "ratio",
    "explore.replay_verify_ns": "ns",
    "host.cpu_s": "s", "host.utilization": "ratio",
    "bench.trace_overhead_frac": "ratio", "bench.failed_frac": "ratio",
}
