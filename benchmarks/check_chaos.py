#!/usr/bin/env python
"""CI chaos gate: every recovery path must be invisible in the data.

Runs one undisturbed serial reference campaign, then drives the
fleet's supervision (:mod:`repro.injection.fleet`) through its
recovery paths and asserts each one ends with Table 1/3/5 and
Figure 4 inputs byte-identical to the reference, and with an
identical deterministic metrics core:

``kill``
    a seeded :class:`~repro.injection.chaos.ChaosPolicy` kills one
    worker mid-unit (possibly with exit code 0 -- the historical
    silent-hang bug) and fails one journal write with ENOSPC; the
    same invocation must self-heal via respawn and still complete;
``salvage``
    a journal line is corrupted on disk; a ``journal_salvage`` resume
    must quarantine the line, re-run its point and complete;
``checkpoint``
    an expired ``deadline`` checkpoints the campaign mid-flight; a
    plain ``resume`` must finish it.

Usage::

    python benchmarks/check_chaos.py [--seed N] [--max-points N]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from repro.apps.ftpd import client1
from repro.apps.registry import get_daemon_spec
from repro.injection import (CampaignInterrupted, ChaosPolicy,
                             corrupt_journal_tail, FleetConfig,
                             run_campaign)

#: CI-speed supervisor: short backoff/polls, identical semantics.
FAST_SUPERVISOR = FleetConfig(backoff_base=0.1, backoff_cap=0.5,
                              poll_interval=0.05, dead_grace=0.2)


def deterministic_core(campaign):
    core = dict(campaign.metrics)
    core.pop("volatile", None)
    return core


def compare(label, campaign, reference):
    """Failure messages for any tally divergence from the reference."""
    failures = []
    if campaign.counts() != reference.counts():
        failures.append("%s: outcome counts diverged: %r != %r"
                        % (label, campaign.counts(),
                           reference.counts()))
    if campaign.counts(refined=True) != reference.counts(refined=True):
        failures.append("%s: refined counts diverged" % label)
    if [r.point for r in campaign.results] \
            != [r.point for r in reference.results]:
        failures.append("%s: result order/points diverged" % label)
    if [r.outcome for r in campaign.results] \
            != [r.outcome for r in reference.results]:
        failures.append("%s: per-point outcomes diverged" % label)
    if campaign.by_location() != reference.by_location():
        failures.append("%s: Table 3 location breakdown diverged"
                        % label)
    if campaign.crash_latencies() != reference.crash_latencies():
        failures.append("%s: Figure 4 crash latencies diverged"
                        % label)
    if deterministic_core(campaign) != deterministic_core(reference):
        failures.append("%s: deterministic metrics core diverged"
                        % label)
    return failures


def check_chaos_kill(daemon, reference, workdir, seed, max_points):
    chaos = ChaosPolicy.seeded(seed, shards=2)
    print("chaos policy (seed %d): %s" % (seed, chaos.describe()))
    campaign = run_campaign(daemon, "Client1", client1,
                            max_points=max_points, workers=2,
                            journal=workdir / "kill.jsonl",
                            chaos=chaos, supervisor=FAST_SUPERVISOR)
    failures = compare("chaos-kill", campaign, reference)
    counters = campaign.metrics["volatile"]["counters"]
    survived = sum(counters.get("supervisor.%s" % name, 0)
                   for name in ("respawns", "worker_errors", "wedged"))
    if not survived:
        failures.append("chaos-kill: no supervision event recorded -- "
                        "the chaos policy never fired")
    return failures


def check_salvage(daemon, reference, workdir, max_points):
    journal = workdir / "salvage.jsonl"
    run_campaign(daemon, "Client1", client1, max_points=max_points,
                 journal=journal)
    victim = corrupt_journal_tail(journal, mode="garbage-line", seed=3)
    print("salvage: corrupted journal line %d" % victim)
    campaign = run_campaign(daemon, "Client1", client1,
                            max_points=max_points, journal=journal,
                            resume=True, journal_salvage=True)
    return compare("salvage-resume", campaign, reference)


def check_checkpoint(daemon, reference, workdir, max_points):
    journal = workdir / "checkpoint.jsonl"
    try:
        run_campaign(daemon, "Client1", client1, max_points=max_points,
                     workers=2, journal=journal, deadline=0.01,
                     supervisor=FAST_SUPERVISOR)
        return ["checkpoint: deadline=0.01 did not interrupt"]
    except CampaignInterrupted as interrupted:
        print("checkpoint: %s" % interrupted)
        if interrupted.reason != "deadline":
            return ["checkpoint: unexpected reason %r"
                    % interrupted.reason]
    campaign = run_campaign(daemon, "Client1", client1,
                            max_points=max_points, workers=2,
                            journal=journal, resume=True,
                            supervisor=FAST_SUPERVISOR)
    return compare("checkpoint-resume", campaign, reference)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=2026,
                        help="chaos schedule seed (default 2026)")
    parser.add_argument("--max-points", type=int, default=48,
                        help="experiments per campaign (default 48)")
    args = parser.parse_args(argv)

    daemon = get_daemon_spec("ftpd").build()
    reference = run_campaign(daemon, "Client1", client1,
                             max_points=args.max_points)
    print("reference: %d experiment(s), counts %r"
          % (reference.total_runs, reference.counts()))

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        failures += check_chaos_kill(daemon, reference, workdir,
                                     args.seed, args.max_points)
        failures += check_salvage(daemon, reference, workdir,
                                  args.max_points)
        failures += check_checkpoint(daemon, reference, workdir,
                                     args.max_points)

    if failures:
        for failure in failures:
            print("FAIL: %s" % failure, file=sys.stderr)
        return 1
    print("chaos gate passed: kill/respawn, salvage-resume and "
          "checkpoint-resume all byte-identical to serial")
    return 0


if __name__ == "__main__":
    sys.exit(main())
