"""Campaign benchmark: one command for every workload and metric.

Run from the repository root::

    python3 perfbench/run.py --workload paper-serial --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` sets each workload up several times (the median is
``setup_s``), runs whole passes of it until another pass would not
fit in ``--seconds`` (at least one), checks every output against
``perfbench/reference.json`` and prints the end-to-end metrics.
``--trace 1`` runs one untraced pass and then the same pass with the
outside-in tracer installed (``tracing.py``), and prints the
per-layer metrics, the layers with the most self time, the
unattributed share and the tracing overhead.  The last line of
standard output is always one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output
matched its reference; a missing ``src/repro`` exits 2 before any
work.  README.md in this directory says what each workload and metric
is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: scratch space inside the checkout: per-run temp dirs (journals,
#: the service socket), saved spans, and the deterministic-count log.
STATE_DIR = ".perfbench"
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "points/s",
    "campaign_p50_s": "s",
    "campaign_p90_s": "s",
    "campaigns_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cc.compile_s": "s",
    "injection.golden.runs": "count",
    "injection.golden.s": "s",
    "injection.injector.prefix_runs": "count",
    "injection.injector.prefix_s": "s",
    "injection.injector.prefix_instructions": "count",
    "injection.snapshot.restores": "count",
    "injection.snapshot.restore_s": "s",
    "injection.snapshot.pages_per_restore": "pages",
    "emu.instructions": "count",
    "emu.self_s": "s",
    "emu.ns_per_instr": "ns",
    "emu.decode_miss_ratio": "ratio",
    "kernel.syscalls": "count",
    "kernel.s": "s",
    "injection.outcomes.classify_s": "s",
    "injection.runner.journal_appends": "count",
    "injection.runner.journal_append_s": "s",
    "injection.runner.unattributed_frac": "ratio",
    "injection.pruning.plan_s": "s",
    "injection.pruning.executed_frac": "ratio",
    "injection.parallel.startup_s": "s",
    "injection.parallel.run_s": "s",
    "injection.parallel.merge_s": "s",
    "injection.parallel.worker_busy_frac": "ratio",
    "service.accept_s": "s",
    "service.first_unit_s": "s",
    "service.finalize_s": "s",
    "injection.fleet.golden_reused_frac": "ratio",
    "injection.fleet.sessions_reused_frac": "ratio",
    "analysis.render_s": "s",
    "trace.overhead_s": "s",
}

#: counts of deterministic work: two traced runs of the same source
#: must agree on them exactly.  service-loop is exempt, because which
#: fleet worker runs which unit (and so how often goldens and prefix
#: runs repeat) depends on timing.
DETERMINISTIC = ("emu.instructions",
                 "injection.injector.prefix_instructions",
                 "injection.golden.runs", "kernel.syscalls",
                 "injection.pruning.executed_frac")
NONDETERMINISTIC_WORKLOADS = ("service-loop",)

#: root spans: one per campaign; their self time is the share of
#: campaign wall no layer span covers.
ROOTS = ("campaign", "service.campaign")

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-serial", "models-parallel",
                                 "service-loop"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def p90(values):
    """90th percentile, interpolated between order statistics."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb():
    """Peak resident set of this process plus that of its largest
    waited-for child (Linux reports both in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_passes(workload, measurement, rng, seconds):
    """Whole passes until another one would end after *seconds*."""
    passes = 0
    while True:
        workload.run_pass(measurement, rng)
        passes += 1
        if measurement.wall + measurement.wall / passes > seconds:
            return passes


def timed_run(workload, measurement, seed, seconds):
    """Set up :data:`SETUP_REPEATS` times, then run passes; every time
    is calibrated (see calibration.py) by the host slowdown measured
    while it ran."""
    from calibration import Calibrator
    setups = []
    try:
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.teardown()
            with Calibrator(inline=True) as calibrator:
                begin = clock()
                workload.setup()
                raw = clock() - begin
            setups.append((raw, raw / calibrator.slowdown()))
        with Calibrator(inline=workload.inline_calibration) as calibrator:
            if calibrator.inline:
                measurement.progress = calibrator.tick
            passes = run_passes(workload, measurement,
                                random.Random(seed), seconds)
    finally:
        workload.teardown()
    slowdown = calibrator.slowdown()
    latencies = [(end - begin) / calibrator.slowdown(begin, end)
                 for begin, end in measurement.latencies]
    wall = measurement.wall / slowdown
    metrics = {
        "setup_s": statistics.median(setup for __, setup in setups),
        "points_per_s": measurement.points / wall,
        "campaign_p50_s": statistics.median(latencies),
        "campaign_p90_s": p90(latencies),
        "campaigns_per_s": len(latencies) / wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    raw_latencies = [end - begin for begin, end in measurement.latencies]
    notes = [
        "passes: %d, host slowdown %.3f (%d calibration samples)"
        % (passes, slowdown, len(calibrator.samples)),
        "raw setup times: %s s" % ", ".join("%.3f" % raw
                                            for raw, __ in setups),
        "raw: points_per_s %.4g, campaign_p50_s %.4g, campaign_p90_s "
        "%.4g, campaigns_per_s %.4g (%d latency samples)"
        % (measurement.points / measurement.wall,
           statistics.median(raw_latencies), p90(raw_latencies),
           len(raw_latencies) / measurement.wall, len(raw_latencies))]
    return metrics, notes


def one_pass(workload, measurement, seed):
    """Set up, run one pass, tear down; returns the pass's wall clock
    calibrated by a background-thread :class:`Calibrator` (a thread
    with no traced calls, so its loop shows in no span)."""
    from calibration import Calibrator
    try:
        workload.setup()
        with Calibrator() as calibrator:
            workload.run_pass(measurement, random.Random(seed))
    finally:
        workload.teardown()
    return measurement.wall / calibrator.slowdown()


def traced_run(workload_class, workdir, reference_data, seed):
    """One untraced pass, then the same pass traced; returns the
    per-layer metrics, the span summary and both measurements."""
    import tracing
    from workloads import Measurement
    untraced = Measurement(reference_data)
    untraced_wall = one_pass(workload_class(workdir), untraced, seed)
    tracer = tracing.Tracer()
    traced = Measurement(reference_data, tracer)
    undo = tracing.install(tracer)
    try:
        traced_wall = one_pass(workload_class(workdir), traced, seed)
    finally:
        tracing.uninstall(undo)
    summary = tracer.summary()
    tracer.save(os.path.join(STATE_DIR, "spans-%s.json.gz"
                             % workload_class.name))
    metrics = layer_metrics(traced, summary)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics, summary, untraced, traced


def layer_metrics(traced, summary):
    def field(name, key):
        return summary.get(name, {}).get(key, 0)

    def total(*names):
        return sum(field(name, "total_s") for name in names)

    def count(name):
        return field(name, "count")

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def median(values):
        return statistics.median(values) if values else 0.0

    local_instructions = field("emu", "value")
    emu_self = field("emu", "self_s")
    restores = count("injection.snapshot.memory")
    hits = traced.perf["prepared_hits"]
    misses = traced.perf["prepared_misses"]
    run_s = total("injection.parallel.run")
    fleet = traced.fleet
    return {
        "cc.compile_s": total("cc"),
        "injection.golden.runs": count("injection.golden")
        + traced.remote["golden_runs"],
        "injection.golden.s": total("injection.golden"),
        "injection.injector.prefix_runs":
            count("injection.injector.prefix")
            + traced.remote["prefix_runs"],
        "injection.injector.prefix_s": total("injection.injector.prefix"),
        "injection.injector.prefix_instructions":
            field("injection.injector.prefix", "value"),
        "injection.snapshot.restores": restores,
        "injection.snapshot.restore_s": total(
            "injection.snapshot.memory", "injection.snapshot.cpu",
            "injection.snapshot.kernel"),
        "injection.snapshot.pages_per_restore": ratio(
            field("injection.snapshot.memory", "value"), restores),
        "emu.instructions": local_instructions
        + traced.remote["instructions"],
        "emu.self_s": emu_self,
        "emu.ns_per_instr": ratio(emu_self * 1e9, local_instructions),
        "emu.decode_miss_ratio": ratio(misses, hits + misses),
        "kernel.syscalls": count("kernel") + traced.remote["syscalls"],
        "kernel.s": total("kernel"),
        "injection.outcomes.classify_s":
            total("injection.outcomes.classify"),
        "injection.runner.journal_appends":
            count("injection.runner.journal_append"),
        "injection.runner.journal_append_s":
            total("injection.runner.journal_append"),
        "injection.runner.unattributed_frac": ratio(
            sum(field(name, "self_s") for name in ROOTS),
            total(*ROOTS)),
        "injection.pruning.plan_s": total("injection.pruning.plan"),
        "injection.pruning.executed_frac": ratio(traced.executed,
                                                 traced.points),
        "injection.parallel.startup_s":
            total("injection.parallel.startup"),
        "injection.parallel.run_s": run_s,
        "injection.parallel.merge_s": total("injection.parallel.merge"),
        "injection.parallel.worker_busy_frac": ratio(
            traced.shard_wall,
            traced.workers * (run_s if run_s else traced.wall)),
        "service.accept_s": median(traced.phases["accept"]),
        "service.first_unit_s": median(traced.phases["first_unit"]),
        "service.finalize_s": median(traced.phases["finalize"]),
        "injection.fleet.golden_reused_frac": ratio(
            fleet["golden_reused"],
            fleet["golden_reused"] + fleet["golden_runs"]),
        "injection.fleet.sessions_reused_frac": ratio(
            fleet["sessions_reused"],
            fleet["sessions_reused"] + fleet["sessions"]),
        "analysis.render_s": total("analysis.render"),
    }


def source_digest():
    """Digest of the program and benchmark sources: "the same code"
    for the deterministic-count comparison."""
    digest = hashlib.sha256()
    for top in ("src", HERE):
        for directory, subdirs, files in sorted(os.walk(top)):
            subdirs.sort()
            for name in sorted(files):
                if name.endswith(".py") or name.endswith(".json"):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, top).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def check_determinism(workload_name, metrics):
    """Compare this run's deterministic counts with the first traced
    run of the same source and workload; returns the differing ones
    (a first run records its counts and returns none)."""
    if workload_name in NONDETERMINISTIC_WORKLOADS:
        return []
    path = os.path.join(STATE_DIR, "counts.json")
    try:
        with open(path) as handle:
            log = json.load(handle)
    except FileNotFoundError:
        log = {}
    key = "%s/%s" % (source_digest(), workload_name)
    counts = {name: metrics[name] for name in DETERMINISTIC}
    previous = log.get(key)
    if previous is None:
        log[key] = counts
        with open(path, "w") as handle:
            json.dump(log, handle, indent=1, sort_keys=True)
        return []
    return ["%s: %s, earlier run of the same source: %s"
            % (name, counts[name], previous[name])
            for name in DETERMINISTIC if counts[name] != previous[name]]


def report_layers(summary, metrics):
    """Layers by self time, largest first, as shares of the summed
    campaign time (both service connections' campaigns count)."""
    campaign_s = sum(summary.get(name, {}).get("total_s", 0.0)
                     for name in ROOTS)
    lines = ["self time by layer (traced pass; campaigns took %.2f s):"
             % campaign_s]
    rows = sorted(((name, row) for name, row in summary.items()
                   if row["count"]),
                  key=lambda item: -item[1]["self_s"])
    for name, row in rows:
        lines.append("  %-36s %8d spans %9.3f s self %6.1f %%"
                     % (name, row["count"], row["self_s"],
                        100.0 * row["self_s"] / campaign_s))
    lines.append("unattributed share of campaign wall: %.2f %%"
                 % (100.0 * metrics["injection.runner.unattributed_frac"]))
    lines.append("tracing overhead: %+.3f s (calibrated)"
                 % metrics["trace.overhead_s"])
    return lines


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join("src", "repro")):
        print("perfbench: no src/repro here; run from the repository "
              "root", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.abspath("src"), HERE]
    import reference
    import workloads
    workload_class = workloads.WORKLOADS[args.workload]
    reference_data = reference.load()
    os.makedirs(STATE_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=STATE_DIR)
    try:
        if args.trace:
            metrics, summary, untraced, traced = traced_run(
                workload_class, workdir, reference_data, args.seed)
            measurements = (untraced, traced)
            units = PER_LAYER
            lines = report_layers(summary, metrics)
            for problem in check_determinism(args.workload, metrics):
                traced.fail("nondeterministic count: " + problem)
        else:
            measurement = workloads.Measurement(reference_data)
            metrics, lines = timed_run(workload_class(workdir),
                                       measurement, args.seed,
                                       args.seconds)
            measurements = (measurement,)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(m.attempted for m in measurements)
    failed = sum(m.failed for m in measurements)
    failures = [what for m in measurements for what in m.failures]
    print("%s seed %d: %d operation(s), %d failed (failed_frac %.4f)"
          % (args.workload, args.seed, attempted, failed,
             failed / attempted if attempted else 1.0))
    for line in lines + ["FAILED: " + what for what in failures]:
        print(line)
    for name, unit in units.items():
        print("  %-40s %14.6g %s" % (name, metrics[name], unit))
    print(json.dumps({
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not failures and attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
