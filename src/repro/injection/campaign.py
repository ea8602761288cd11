"""Selective-exhaustive injection campaigns (Sections 4-6).

A campaign fixes a daemon, a client access pattern, an encoding
(old = stock IA-32, new = the Table 4 re-encoding) and a fault model
(:mod:`repro.injection.faultmodels`; default: the paper's single-bit
branch flips), then runs the model's full experiment list over the
authentication functions and tallies the outcome distribution.
:class:`CampaignSpec` names one cell of that
daemon x client x encoding x fault-model space; specs are what get
enumerated, sharded, journaled and resumed; :class:`RunOptions` holds
how one cell executes (budget, journal, pruning, observability sinks)
as one validated value.

Execution is delegated to the fault-tolerant engine in
:mod:`repro.injection.runner`: experiments are isolated (a harness
exception becomes one ``HARNESS_FAULT`` record instead of killing the
campaign), hangs are caught by a watchdog, and an optional JSONL
journal makes campaigns resumable (``journal=path, resume=True``).
"""

from __future__ import annotations

import os
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

    def __post_init__(self):
        for name in ("daemon", "client", "encoding", "fault_model"):
            if not isinstance(getattr(self, name), str):
                raise _bad(TypeError, name, "a name", getattr(self, name))
        if self.encoding not in ALL_ENCODINGS:
            raise _bad(ValueError, "encoding", " or ".join(ALL_ENCODINGS),
                       self.encoding)

    def label(self):
        return "%s %s %s %s" % (self.daemon, self.client,
                                self.encoding, self.fault_model)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _bad(error, name, wanted, value):
    return error("%s must be %s, got %r" % (name, wanted, value))


def _items(name, value):
    """*value* as a tuple; a string is one name, not a collection."""
    if not isinstance(value, (str, bytes)):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise _bad(TypeError, name, "a collection", value)


#: RunOptions int fields -> minimum (``None``: any int).
_INT_MINIMA = {"budget": 1, "max_points": 0, "retries": 0,
               "journal_fsync": 1, "audit_seed": None}
_PATHS = ("journal", "trace", "metrics", "profile")
_FLAGS = ("resume", "journal_salvage", "forensics", "full_restore",
          "prune")


@dataclass(frozen=True)
class RunOptions:
    """How one campaign executes: the pure-data options every layer
    under the public entry points receives as this one value.

    Like :class:`CampaignSpec` it holds data, never live objects
    (progress callbacks, event buses, samplers and caches stay
    explicit arguments), so it pickles into a fleet worker unchanged.
    ``__post_init__`` checks every field's type and range once (a
    ``bool`` is not an int) and raises ``TypeError``/``ValueError``
    naming the field; ``kinds`` becomes a frozenset and ``ranges`` a
    tuple of ``(start, end)`` pairs.
    """

    #: instruction kinds whose branch bits are injected.
    kinds: frozenset = DEFAULT_TARGET_KINDS
    #: guest instructions per connection; a run that exhausts it is a
    #: looping server (FSV, or HANG on a tight loop).
    budget: int = CONNECTION_INSTRUCTION_BUDGET
    #: truncate the experiment list (fast tests); ``None`` runs all.
    max_points: int | None = None
    #: injected ``(start, end)`` code regions; ``None`` means the
    #: daemon's authentication functions (extension experiments
    #: target other sections, e.g. the path-validation code).
    ranges: tuple | None = None
    #: JSONL file every result is appended to as it completes.
    journal: str | os.PathLike | None = None
    #: skip points already in ``journal`` (a killed campaign restarts
    #: where it stopped with identical tallies).  The journal must be
    #: of the same daemon, client, encoding, fault model and budget.
    resume: bool = False
    #: re-execute each activated experiment this many times and
    #: quarantine points whose outcome will not stabilise.
    retries: int = 0
    #: fsync the journal every N records (power-loss durability).
    journal_fsync: int | None = None
    #: on resume, quarantine corrupt journal lines (re-running their
    #: points) instead of raising.
    journal_salvage: bool = False
    #: Chrome-trace span file (a fleet run merges its workers' spans).
    trace: str | os.PathLike | None = None
    #: metrics registry dump (also ``CampaignResult.metrics``).
    metrics: str | os.PathLike | None = None
    #: merged sampling-profile JSON (implies a default sampler).
    profile: str | os.PathLike | None = None
    #: capture the last-instructions ring and a register/flags
    #: snapshot on every SD/HANG/HF record.  Like the three sinks it
    #: is observational: tables and tallies are byte-identical.
    forensics: bool = False
    #: rewrite every memory region between experiments instead of the
    #: dirtied pages (the escape hatch; outcomes are identical).
    full_restore: bool = False
    #: run one representative per equivalence class
    #: (:mod:`repro.injection.pruning`) and fan its outcome out to the
    #: members; tables are byte-identical to the exhaustive sweep.
    prune: bool = False
    #: with ``prune``, exhaustively re-run this seeded fraction of the
    #: classes; a divergent member raises ``PruningAuditError``.
    audit_fraction: float = 0.0
    #: seed of the audited class sample.
    audit_seed: int = 0

    def __post_init__(self):
        for name, minimum in _INT_MINIMA.items():
            value = getattr(self, name)
            if value is None and name in ("max_points", "journal_fsync"):
                continue
            if not _is_int(value):
                raise _bad(TypeError, name, "an int", value)
            if minimum is not None and value < minimum:
                raise _bad(ValueError, name, ">= %d" % minimum, value)
        for name in _FLAGS:
            if not isinstance(getattr(self, name), bool):
                raise _bad(TypeError, name, "a bool", getattr(self, name))
        for name in _PATHS:
            value = getattr(self, name)
            if value is not None and not isinstance(value, (str,
                                                            os.PathLike)):
                raise _bad(TypeError, name, "a path", value)
            if value is not None and not os.fspath(value):
                raise _bad(ValueError, name, "a non-empty path", value)
        fraction = self.audit_fraction
        if not (_is_int(fraction) or isinstance(fraction, float)):
            raise _bad(TypeError, "audit_fraction", "a number", fraction)
        if not 0.0 <= fraction <= 1.0:
            raise _bad(ValueError, "audit_fraction", "within [0, 1]",
                       fraction)
        kinds = _items("kinds", self.kinds)
        if not all(isinstance(kind, str) for kind in kinds):
            raise _bad(TypeError, "kinds", "kind names", self.kinds)
        object.__setattr__(self, "kinds", frozenset(kinds))
        if self.ranges is not None:
            ranges = tuple(_items("ranges", pair)
                           for pair in _items("ranges", self.ranges))
            if not all(len(pair) == 2 and all(map(_is_int, pair))
                       for pair in ranges):
                raise _bad(TypeError, "ranges", "(start, end) pairs",
                           self.ranges)
            object.__setattr__(self, "ranges", ranges)


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
    #: wall-clock/throughput record: a view of the volatile section
    #: of ``metrics`` (see
    #: :func:`repro.injection.runner.campaign_timing`); observational
    #: metadata only -- never part of any tally or comparison.
    timing: dict | None = None
    #: serialized metrics registry
    #: (:class:`repro.obs.metrics.MetricsRegistry`).  Its deterministic
    #: core (outcome tallies, crash-latency histogram, quarantine and
    #: retry counts) is a function of ``results`` and ``quarantined``
    #: (:func:`repro.injection.runner.finish_campaign`); its
    #: ``volatile`` section (wall clock, engine counters, supervision
    #: events seen while the campaign was live) may differ between
    #: runs.  Observational only, like ``timing``.
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
                 encoding=ENCODING_OLD, fault_model=None, progress=None,
                 workers=None, daemon_factory=None, deadline=None,
                 graceful_signals=False, chaos=None, supervisor=None,
                 sessions=None, telemetry=None,
                 telemetry_campaign=None, sampler=None, **options):
    """Run one full selective-exhaustive campaign.

    ``fault_model`` selects the injected fault family by registry name
    or instance (:mod:`repro.injection.faultmodels`; default: the
    paper's ``branch-bit``).  Every keyword naming a
    :class:`RunOptions` field (``max_points``, ``journal``, ``resume``,
    ``prune``, ...) builds the one validated options value the engine
    runs under; a bad value raises before anything runs.

    The other arguments are live objects.  ``workers=N`` (N > 1) runs
    the experiment list on a private fleet of N worker processes
    (:func:`repro.injection.fleet.run_fleet_campaign`) with tallies
    identical to a serial run; the journal becomes one
    ``<journal>.shardK`` file per worker, ``daemon_factory`` overrides
    how a worker rebuilds its daemon and ``supervisor`` is a
    :class:`~repro.injection.fleet.FleetConfig` (its ``workers`` is
    replaced by ``workers=``).  ``deadline`` and
    ``graceful_signals=True`` (SIGTERM/SIGINT) checkpoint the campaign,
    raising :class:`~repro.injection.runner.CampaignInterrupted` with
    a resumable journal.  ``chaos`` injects harness faults from a
    :class:`~repro.injection.chaos.ChaosPolicy`; ``sessions`` is a
    dict that shares each cell's breakpoint session (its prefix pass
    and site snapshots) across sequential serial campaigns, e.g. both
    encodings or a fault-model sweep over one daemon; ``progress(done,
    total)`` reports as experiments complete.  ``telemetry`` is an
    :class:`~repro.obs.events.EventBus` for typed campaign events
    (labelled ``telemetry_campaign``) and ``sampler`` attaches the
    instruction-count sampling profiler (an instance, a period, or
    ``True``); both are volatile-only, like the observability sinks.
    """
    options = RunOptions(**options)
    if workers is not None and workers > 1:
        from .fleet import run_fleet_campaign
        return run_fleet_campaign(
            daemon, client_name, client_factory, workers=workers,
            config=(None if supervisor is None
                    else replace(supervisor, workers=workers)),
            chaos=chaos, deadline=deadline,
            graceful_signals=graceful_signals, telemetry=telemetry,
            options=options, encoding=encoding,
            fault_model=fault_model, progress=progress,
            daemon_factory=daemon_factory,
            telemetry_campaign=telemetry_campaign, sampler=sampler)
    from .runner import CampaignRunner, checkpoint_requests
    # a serial run is "shard 0, attempt 0" to a chaos policy (an
    # already-built agent passes through).
    chaos_agent = (chaos.agent(0, 0) if hasattr(chaos, "agent")
                   else chaos)
    with checkpoint_requests(deadline, graceful_signals) as stop_check:
        return CampaignRunner(
            daemon, client_name, client_factory, options,
            encoding=encoding, fault_model=fault_model,
            progress=progress, stop_check=stop_check, chaos=chaos_agent,
            sessions=sessions, telemetry=telemetry,
            telemetry_campaign=telemetry_campaign,
            sampler=sampler).run()


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
    ``<journal>.new`` so the two campaigns never share a file.  The
    site snapshots do not depend on the encoding, so both campaigns
    share one breakpoint session: the new encoding runs no prefix pass.
    """
    journal = kwargs.pop("journal", None)
    kwargs.setdefault("sessions", {})
    old = run_campaign(daemon, client_name, client_factory,
                       encoding=ENCODING_OLD,
                       journal=None if journal is None
                       else "%s.old" % journal, **kwargs)
    new = run_campaign(daemon, client_name, client_factory,
                       encoding=ENCODING_NEW,
                       journal=None if journal is None
                       else "%s.new" % journal, **kwargs)
    return old, new
