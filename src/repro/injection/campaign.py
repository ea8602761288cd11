"""Selective-exhaustive injection campaigns (Sections 4-6).

A campaign fixes a daemon, a client access pattern, an encoding
(old = stock IA-32, new = the Table 4 re-encoding) and a fault model
(:mod:`repro.injection.faultmodels`; default: the paper's single-bit
branch flips), then runs the model's full experiment list over the
authentication functions and tallies the outcome distribution.
:class:`CampaignSpec` names one cell of that
daemon x client x encoding x fault-model space; specs are what get
enumerated, sharded, journaled and resumed.

Execution is delegated to the fault-tolerant engine in
:mod:`repro.injection.runner`: experiments are isolated (a harness
exception becomes one ``HARNESS_FAULT`` record instead of killing the
campaign), hangs are caught by a watchdog, and an optional JSONL
journal makes campaigns resumable (``journal=path, resume=True``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

from ..apps.common import CONNECTION_INSTRUCTION_BUDGET
from .outcomes import (ALL_OUTCOMES, FAIL_SILENCE_VIOLATION,
                       FOLD_TO_PAPER, HANG, REFINED_OUTCOMES,
                       SECURITY_BREAKIN, SYSTEM_DETECTION)
from .targets import DEFAULT_TARGET_KINDS

ENCODING_OLD = "old"
ENCODING_NEW = "new"
ALL_ENCODINGS = (ENCODING_OLD, ENCODING_NEW)


@dataclass(frozen=True)
class CampaignSpec:
    """One cell of the campaign design space: which daemon, driven by
    which scripted client, under which instruction encoding, injected
    with which fault model.

    A spec is pure data (names, not objects), so it is picklable,
    journal-stampable and cheap to enumerate; :meth:`build_daemon`,
    :meth:`client_factory` and :meth:`model` resolve the names through
    the daemon and fault-model registries when a run is actually
    wanted.
    """

    daemon: str = "ftpd"
    client: str = "Client1"
    encoding: str = ENCODING_OLD
    fault_model: str = "branch-bit"

    def daemon_spec(self):
        from ..apps.registry import get_daemon_spec
        return get_daemon_spec(self.daemon)

    def build_daemon(self, **kwargs):
        return self.daemon_spec().build(**kwargs)

    def client_factory(self):
        return self.daemon_spec().client_factory(self.client)

    def model(self):
        from .faultmodels import get_fault_model
        return get_fault_model(self.fault_model)

    def label(self):
        return "%s %s %s %s" % (self.daemon, self.client,
                                self.encoding, self.fault_model)


def enumerate_specs(daemons=None, clients=None, encodings=(ENCODING_OLD,),
                    fault_models=None):
    """The daemon x client x encoding x fault-model product, as specs.

    ``None`` means "everything registered" for daemons and fault
    models, and "every client of that daemon" for clients.  This is
    the sweep the CI plugin matrix and extension studies iterate.
    """
    from ..apps.registry import available_daemons, get_daemon_spec
    from .faultmodels import available_fault_models
    if daemons is None:
        daemons = available_daemons()
    if fault_models is None:
        fault_models = available_fault_models()
    specs = []
    for daemon in daemons:
        daemon_clients = (clients if clients is not None
                          else get_daemon_spec(daemon).clients())
        for client in daemon_clients:
            for encoding in encodings:
                for fault_model in fault_models:
                    specs.append(CampaignSpec(
                        daemon=daemon, client=client,
                        encoding=encoding, fault_model=fault_model))
    return specs


@dataclass
class QuarantinedPoint:
    """A point whose outcome would not stabilise across re-executions
    (nondeterminism smoke signal); excluded from every tally, counted
    explicitly."""

    point: object
    location: str
    outcomes: tuple          # the disagreeing outcomes observed
    rounds: int              # retry rounds spent before giving up


@dataclass
class CampaignResult:
    """All experiments of one (daemon, client, encoding) campaign."""

    daemon_name: str
    client_name: str
    encoding: str
    fault_model: str = "branch-bit"
    results: list = field(default_factory=list)
    golden: object = None
    #: points excluded after quarantine-with-retry; never part of
    #: ``results`` or any percentage.
    quarantined: list = field(default_factory=list)
    #: wall-clock/throughput record (see
    #: :func:`repro.injection.runner.campaign_timing`); observational
    #: metadata only -- never part of any tally or comparison.
    timing: dict | None = None
    #: serialized metrics registry
    #: (:class:`repro.obs.metrics.MetricsRegistry`): outcome tallies,
    #: crash-latency histogram, quarantine/retry counts, plus a
    #: ``volatile`` section (wall clock, engine counters) that may
    #: differ between runs.  Observational only, like ``timing``.
    metrics: dict | None = None

    @property
    def total_runs(self):
        return len(self.results)

    @property
    def quarantined_count(self):
        return len(self.quarantined)

    def counts(self, refined=False):
        """Outcome tally.  The default folds the runner's refinements
        back onto the paper's five-way taxonomy (HANG into FSV, HF
        into NA) so Tables 1/3/5 are directly comparable; pass
        ``refined=True`` for the full seven-way breakdown."""
        tally = Counter(result.outcome for result in self.results)
        if refined:
            return {outcome: tally.get(outcome, 0)
                    for outcome in REFINED_OUTCOMES}
        folded = Counter()
        for outcome, count in tally.items():
            folded[FOLD_TO_PAPER.get(outcome, outcome)] += count
        return {outcome: folded.get(outcome, 0)
                for outcome in ALL_OUTCOMES}

    @property
    def activated_count(self):
        return sum(1 for result in self.results if result.activated)

    def percentage_of_activated(self, outcome):
        activated = self.activated_count
        if not activated:
            return 0.0
        table = self.counts(refined=outcome not in ALL_OUTCOMES)
        return 100.0 * table[outcome] / activated

    def crash_latencies(self):
        """Instruction counts between activation and crash (Figure 4)."""
        return [result.crash_latency for result in self.results
                if result.outcome == SYSTEM_DETECTION
                and result.crash_latency is not None]

    def by_location(self, outcomes=(SECURITY_BREAKIN,
                                    FAIL_SILENCE_VIOLATION, HANG)):
        """Location breakdown of selected outcomes (Table 3).  HANG is
        included by default because it folds into FSV there."""
        tally = Counter(result.location for result in self.results
                        if result.outcome in outcomes)
        return dict(tally)

    def results_with_outcome(self, outcome):
        return [result for result in self.results
                if result.outcome == outcome]


def run_campaign(daemon, client_name, client_factory,
                 encoding=ENCODING_OLD, kinds=DEFAULT_TARGET_KINDS,
                 budget=CONNECTION_INSTRUCTION_BUDGET, progress=None,
                 max_points=None, ranges=None, journal=None,
                 resume=False, retries=0, watchdog=None, workers=None,
                 daemon_factory=None, fault_model=None, trace=None,
                 metrics=None, forensics=False, deadline=None,
                 graceful_signals=False, journal_fsync=None,
                 journal_salvage=False, chaos=None, supervisor=None,
                 full_restore=False, session_cache=None, prune=False,
                 audit_fraction=0.0, audit_seed=0, telemetry=None,
                 telemetry_campaign=None, sampler=None, profile=None):
    """Run one full selective-exhaustive campaign.

    ``fault_model`` selects the injected fault family by registry name
    or instance (:mod:`repro.injection.faultmodels`); the default is
    the paper's ``branch-bit`` model, under which campaigns are
    byte-identical to the pre-plugin pipeline.

    ``max_points`` truncates the experiment list (used by fast tests);
    benchmarks always run the complete set.  ``ranges`` overrides the
    injected code regions (default: the daemon's authentication
    functions) -- used by extension experiments that target other
    security-relevant sections, e.g. the path-validation code.

    ``journal`` appends every result to a JSONL file as it completes;
    with ``resume=True`` already-journaled points are skipped, so a
    killed campaign restarts where it stopped with identical tallies.
    ``retries`` re-executes each activated experiment that many times
    and quarantines points whose outcome will not stabilise.

    ``workers=N`` (N > 1) runs the experiment list on a private fleet
    of N worker processes
    (:func:`repro.injection.fleet.run_fleet_campaign`); tallies and
    tables are identical to a serial run, the journal becomes one
    ``<journal>.shardK`` file per worker (the base path keeps only
    work-unit progress markers), and ``daemon_factory`` optionally
    overrides how each worker rebuilds its daemon.

    Observability (:mod:`repro.obs`): ``trace`` writes a Chrome-trace
    span file (parallel runs merge every worker's spans into it),
    ``metrics`` writes the serialized metrics registry (also
    attached as ``CampaignResult.metrics``), and ``forensics=True``
    captures the last-instructions ring plus a register/flags snapshot
    on every SD/HANG/HF record.  All three are observational: tables
    and tallies are byte-identical with any combination enabled.

    Resilience: ``deadline`` bounds the campaign's wall clock and
    ``graceful_signals=True`` converts SIGTERM/SIGINT into a clean
    checkpoint -- both raise
    :class:`~repro.injection.runner.CampaignInterrupted` with a
    resumable journal.  ``journal_fsync=N`` fsyncs the journal every N
    records (durability against power loss), ``journal_salvage=True``
    quarantines corrupt journal lines on resume instead of raising,
    ``chaos`` injects harness faults from a
    :class:`~repro.injection.chaos.ChaosPolicy`, and ``supervisor``
    is a :class:`~repro.injection.fleet.FleetConfig` for a parallel
    run (restart budget, backoff, heartbeat deadline; its ``workers``
    is replaced by ``workers=``).

    Pruning (:mod:`repro.injection.pruning`): ``prune=True`` partitions
    the points into equivalence classes, runs one representative per
    class and fans the outcome out to every member -- ``counts()``,
    tables and figures are byte-identical to the exhaustive sweep,
    journal records carry ``class_id``/``representative`` provenance.
    ``audit_fraction`` exhaustively re-runs a seeded
    (``audit_seed``) sample of classes and raises
    :class:`~repro.injection.pruning.PruningAuditError` on any member
    whose outcome diverges from its representative.

    ``full_restore=True`` disables the dirty-page snapshot restore and
    rewrites every memory region between experiments (the escape
    hatch; outcomes are byte-identical either way).  ``session_cache``
    shares breakpoint sessions across sequential serial campaigns --
    e.g. a fault-model sweep over the same daemon reuses one site
    snapshot per instruction (ignored by parallel runs, whose workers
    each keep their own cache).

    Telemetry (:mod:`repro.obs.events` / :mod:`repro.obs.sampler`):
    ``telemetry`` is an :class:`~repro.obs.events.EventBus` receiving
    typed campaign events (``telemetry_campaign`` labels them when one
    bus serves several campaigns); ``sampler`` attaches a
    deterministic instruction-count sampling profiler (an instance, a
    period, or ``True`` for the default period) and ``profile`` saves
    its merged profile JSON at that path.  Both are volatile-only:
    the deterministic metrics core, tables and figures are
    byte-identical with telemetry and sampling enabled.
    """
    if workers is not None and workers > 1:
        from .fleet import run_fleet_campaign
        return run_fleet_campaign(
            daemon, client_name, client_factory, workers=workers,
            config=(None if supervisor is None
                    else replace(supervisor, workers=workers)),
            chaos=chaos, deadline=deadline,
            graceful_signals=graceful_signals, telemetry=telemetry,
            encoding=encoding, kinds=kinds, budget=budget,
            progress=progress, max_points=max_points, ranges=ranges,
            journal=journal, resume=resume, retries=retries,
            watchdog=watchdog, daemon_factory=daemon_factory,
            fault_model=fault_model, trace=trace, metrics=metrics,
            forensics=forensics, journal_fsync=journal_fsync,
            journal_salvage=journal_salvage, full_restore=full_restore,
            prune=prune, audit_fraction=audit_fraction,
            audit_seed=audit_seed,
            telemetry_campaign=telemetry_campaign, sampler=sampler,
            profile=profile)
    from .runner import CampaignRunner
    # a serial run is "shard 0, attempt 0" to a chaos policy (an
    # already-built agent passes through).
    chaos_agent = (chaos.agent(0, 0) if hasattr(chaos, "agent")
                   else chaos)
    runner = CampaignRunner(daemon, client_name, client_factory,
                            encoding=encoding, kinds=kinds,
                            budget=budget, progress=progress,
                            max_points=max_points, ranges=ranges,
                            journal=journal, resume=resume,
                            retries=retries, watchdog=watchdog,
                            fault_model=fault_model, trace=trace,
                            metrics=metrics, forensics=forensics,
                            deadline=deadline,
                            graceful_signals=graceful_signals,
                            journal_fsync=journal_fsync,
                            journal_salvage=journal_salvage,
                            chaos=chaos_agent,
                            full_restore=full_restore,
                            telemetry=telemetry,
                            telemetry_campaign=telemetry_campaign,
                            sampler=sampler, profile=profile,
                            session_cache=session_cache, prune=prune,
                            audit_fraction=audit_fraction,
                            audit_seed=audit_seed)
    return runner.run()


def run_spec(spec, daemon=None, **kwargs):
    """Run the campaign a :class:`CampaignSpec` names.

    The daemon is compiled through the registry (pass ``daemon=`` to
    reuse an already-compiled instance); every execution option of
    :func:`run_campaign` (``workers``, ``journal``, ``resume``, ...)
    passes through unchanged.
    """
    if daemon is None:
        daemon = spec.build_daemon()
    return run_campaign(daemon, spec.client, spec.client_factory(),
                        encoding=spec.encoding,
                        fault_model=spec.fault_model, **kwargs)


def _instruction_bytes(module, point):
    offset = point.instruction_address - module.text_base
    return bytes(module.text[offset:offset + point.instruction_length])


def run_both_encodings(daemon, client_name, client_factory, **kwargs):
    """Convenience: the Table 1 and Table 5 campaigns for one client.

    A ``journal`` argument is split into ``<journal>.old`` and
    ``<journal>.new`` so the two campaigns never share a file.
    """
    journal = kwargs.pop("journal", None)
    old = run_campaign(daemon, client_name, client_factory,
                       encoding=ENCODING_OLD,
                       journal=None if journal is None
                       else "%s.old" % journal, **kwargs)
    new = run_campaign(daemon, client_name, client_factory,
                       encoding=ENCODING_NEW,
                       journal=None if journal is None
                       else "%s.new" % journal, **kwargs)
    return old, new
