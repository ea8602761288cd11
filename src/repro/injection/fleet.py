"""Warm worker fleet: the campaign engine's parallel execution layer.

Every parallel campaign runs here: ``run_campaign(workers=N)``, the
CLI's ``--workers N`` and ``repro serve`` all go through
:func:`run_fleet_campaign` or a shared :class:`WorkerFleet`.  The
fleet is the execution layer under the scheduling layer of
:mod:`repro.injection.scheduler`:

* a :class:`WorkerFleet` holds ``N`` long-lived worker processes that
  can *outlive campaigns*: each worker keeps its rebuilt daemon,
  golden run and :class:`~repro.injection.injector.BreakpointSession`
  warm per campaign cell, so the service's second campaign for a cell
  skips the golden run and the prefix pass entirely;
* workers pull :class:`~repro.injection.scheduler.WorkUnit`\\ s from a
  :class:`~repro.injection.scheduler.CampaignScheduler` whenever they
  go idle (work stealing by pull), interleaving units from several
  concurrent campaigns;
* every unit runs through the ordinary fault-tolerant
  :class:`~repro.injection.runner.CampaignRunner` (isolation,
  watchdog, retries, quarantine, pruning all apply per unit) and
  journals to the worker's ``<journal>.shardK`` file
  (:mod:`repro.injection.parallel`), so resume, the salvage loader and
  ``repro status`` read one format;
* supervision: progress ticks are heartbeats; a dead or wedged
  worker incarnation is respawned with exponential backoff against a
  per-worker restart budget, whatever it journaled is salvaged and
  its next incarnation resumes the rest of its unit; a worker that
  exhausts its budget is retired and that remainder migrates to a
  sibling (or, with every worker retired, runs inline in the parent).
  A unit that raises is charged to the unit, not the worker: its
  salvaged remainder is requeued and the incarnation respawned
  without spending the budget, and past ``unit_attempts`` the unit
  runs inline.  SIGTERM/SIGINT or a deadline checkpoint the campaign
  through :meth:`WorkerFleet.drain`.

Every supervision event is counted (:data:`EVENT_NAMES`) and marked
on the trace of every live campaign.  Each campaign exports, as
volatile ``supervisor.*`` metrics, the counts of the events that
happened while it was live, so a recovered campaign is visibly
recovered and a later campaign on the same fleet starts from zero.

Determinism: completions are keyed by point and merged by enumeration
index (:meth:`CampaignScheduler.merged_results`), and the merge
derives the deterministic metrics core from the merged records
(:func:`~repro.injection.runner.finish_campaign`), so Tables 1/3/5,
Figure 4 and the core are byte-identical to a serial run no matter
how units interleaved, migrated between workers, or were salvaged and
requeued after a crash.  ``timing`` and its per-unit ``shards``
entries are views of the merged volatile metrics.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field, replace
from multiprocessing import connection as _mp_connection

from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry
from ..obs.sampler import as_sampler, host_phase, Sampler
from ..obs.trace import merge_trace_files, Tracer
from .faultmodels import get_fault_model
from .parallel import (_record_key, default_daemon_factory,
                       discover_shard_journals, load_shard_journals,
                       shard_journal_path)
from .runner import (_point_key, checkpoint_requests,
                     CampaignInterrupted, CampaignJournal, CampaignRunner,
                     count_engine_work, finish_campaign, golden_cell,
                     install_stop_handlers, JournalError,
                     record_golden_traced, validate_journal_meta,
                     WatchdogConfig)
from .scheduler import CampaignScheduler, UNIT_INSTRUCTIONS

_LOGGER = get_logger("fleet")

#: worker slot states.
IDLE = "idle"
BUSY = "busy"
BACKOFF = "backoff"
RETIRED = "retired"

#: every supervision event the fleet counts (each campaign exports the
#: counts accrued while it was live as ``supervisor.<name>`` volatile
#: counters).  A retired
#: worker counts as a ``failed_shards`` event, and the points of the
#: unit it held, which migrate to its siblings, as ``degraded`` /
#: ``degraded_points``.  ``pipe_errors`` counts message channels torn
#: while their worker was busy (killed mid-send); the EOF after a
#: clean ``bye`` is normal teardown and not counted.
EVENT_NAMES = ("respawns", "wedged", "worker_errors", "failed_shards",
               "degraded", "degraded_points", "salvaged_points",
               "inline_points", "checkpoints", "checkpoint_exits",
               "stale_messages", "pipe_errors")


@dataclass
class FleetConfig:
    """Tunables for :class:`WorkerFleet` (and the ``supervisor=``
    argument of :func:`~repro.injection.campaign.run_campaign`, which
    takes ``workers`` from its own ``workers=``).

    ``max_restarts`` is the per-worker-*incarnation* budget (a worker
    that keeps dying is retired, the unit it held migrates to a
    sibling).  ``unit_attempts`` bounds how often one unit may be
    taken from the queue (a failed dispatch, a migration) before the
    parent runs it inline.
    ``heartbeat_timeout`` defaults to twice the watchdog's wall-clock
    limit plus slack, so a worker inside its slowest legal experiment
    is never declared wedged.  ``dead_grace`` delays the verdict on a
    non-alive process long enough for its final pipe message to
    drain.
    """

    workers: int = 2
    unit_instructions: int = UNIT_INSTRUCTIONS
    max_restarts: int = 2
    unit_attempts: int = 3
    backoff_base: float = 0.5
    backoff_cap: float = 8.0
    heartbeat_timeout: float | None = None
    poll_interval: float = 0.25
    dead_grace: float = 0.5
    drain_timeout: float = 30.0


def backoff_delay(config, restarts):
    """Exponential respawn delay for the *restarts*-th restart
    (1-based), capped."""
    return min(config.backoff_cap,
               config.backoff_base * (2 ** (restarts - 1)))


def join_process(process, timeout=5.0):
    """Join with a SIGKILL escalation for processes that ignore it."""
    process.join(timeout)
    if process.is_alive():
        process.kill()
        process.join(timeout)


def _unit_options(options, shard, **overrides):
    """A work unit's options: the campaign's, journaling to (and
    resuming from) *shard*'s ``<journal>.shardK`` file, without the
    campaign-level sinks that only the parent writes."""
    journal = (None if options.journal is None
               else shard_journal_path(options.journal, shard))
    return replace(options, journal=journal, resume=True, trace=None,
                   metrics=None, profile=None, **overrides)


# ----------------------------------------------------------------------
# Worker side

class _IncarnationChaos:
    """Adapt a per-incarnation :class:`ChaosAgent` to per-unit runners.

    Chaos ``after`` thresholds count experiments (or journal writes)
    since the *incarnation* started, but every unit's runner restarts
    its own counters at zero -- so accumulate across units here."""

    def __init__(self, agent):
        self.agent = agent
        self._points = 0
        self._writes = 0

    def on_point(self, executed):
        self._points += 1
        self.agent.on_point(self._points)

    def on_journal_write(self, index):
        self.agent.on_journal_write(self._writes)
        self._writes += 1


def _fleet_worker_main(worker, incarnation, conn, config,
                       chaos_policy=None, contexts=None):
    """Long-lived warm worker: serve units until told to stop.

    ``conn`` is this incarnation's private duplex pipe (one writer per
    end, so a worker killed mid-send tears only its own channel).
    ``contexts`` holds the campaigns submitted before the fork.
    Inbound messages: ``("campaign", ctx)`` registers a later
    campaign's context, ``("unit", cid, unit)`` runs one work unit,
    ``("stop",)`` exits.  Every outbound message is tagged
    ``(kind, worker, incarnation, ...)`` so the parent can discard a
    killed incarnation's leftovers as stale.

    Warm state held across units *and campaigns*: one rebuilt daemon,
    one golden run and one breakpoint session per campaign cell -- the
    second campaign for a cell skips the golden run, and a unit whose
    sites the session already captured runs no prefix pass.
    """
    stop = {"reason": None}

    def emit(kind, *rest):
        try:
            conn.send((kind, worker, incarnation) + rest)
        except (BrokenPipeError, OSError):
            pass      # parent gone; journals are flushed regardless

    # a worker checkpoints its unit on SIGTERM/SIGINT (fork inherits
    # the parent's handlers, so install its own)
    install_stop_handlers(lambda name: stop.__setitem__("reason", name))

    contexts = dict(contexts or {})     # cid -> campaign context
    daemons = {}      # cell -> rebuilt daemon
    goldens = {}      # cell -> GoldenRun
    sessions = {}     # cell -> BreakpointSession
    agent = (chaos_policy.agent(worker, incarnation)
             if chaos_policy is not None else None)
    chaos = _IncarnationChaos(agent) if agent is not None else None

    # Forked siblings hold copies of this pipe's parent end, so a
    # parent killed without stopping the fleet may never show as EOF:
    # watch for being re-parented instead.
    parent = multiprocessing.parent_process()
    emit("hello")
    try:
        while stop["reason"] is None:
            if not conn.poll(config.poll_interval):
                if parent is not None and os.getppid() != parent.pid:
                    break                 # parent gone: shut down
                continue
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break                     # parent gone: shut down
            kind = message[0]
            if kind == "stop":
                break
            if kind == "campaign":
                ctx = message[1]
                contexts[ctx["cid"]] = ctx
                continue
            if kind != "unit":
                continue
            cid, unit = message[1], message[2]
            try:
                _run_unit(emit, stop, contexts[cid], unit, daemons,
                          goldens, sessions, worker, chaos)
            except CampaignInterrupted as interrupted:
                emit("unit-checkpoint", cid, unit.unit_id,
                     interrupted.completed)
            except BaseException:
                emit("unit-error", cid, unit.unit_id,
                     traceback.format_exc())
    finally:
        emit("bye")
        conn.close()


def _run_unit(emit, stop, ctx, unit, daemons, goldens, sessions,
              worker, chaos):
    """One work unit through the ordinary fault-tolerant runner."""
    cid = ctx["cid"]
    cell = ctx["cell"]
    daemon = daemons.get(cell)
    if daemon is None:
        daemon = ctx["daemon_factory"]()
        daemons[cell] = daemon
    options = _unit_options(ctx["options"], worker)
    tracer = (Tracer(sink=None, tid=worker + 1)
              if ctx["options"].trace is not None else None)

    def progress(done, total):
        # progress ticks double as the liveness heartbeat
        emit("progress", cid, unit.unit_id, done, total)

    # per-unit sampler: guest samples are deterministic per unit and
    # ship home in the payload for the parent to fold together.
    sampler = (Sampler(ctx["sample_period"])
               if ctx.get("sample_period") else None)
    runner = CampaignRunner(
        daemon, ctx["client_name"], ctx["client_factory"], options,
        encoding=ctx["encoding"], fault_model=ctx["fault_model"],
        progress=progress, points=list(unit.points), tracer=tracer,
        trace_root="shard",
        trace_attrs={"shard": worker, "unit": unit.unit_id},
        stop_check=lambda: stop["reason"], chaos=chaos,
        sessions=sessions, golden=goldens.get(cell),
        sampler=sampler)
    campaign = runner.run()
    goldens[cell] = runner._golden
    payload = _unit_payload(campaign, unit, worker, tracer)
    payload["profile"] = sampler.as_dict() if sampler is not None \
        else None
    if options.journal is not None:
        CampaignJournal.mark_unit(
            options.journal, unit.unit_id,
            len(campaign.results) + len(campaign.quarantined),
            campaign=cid)
    emit("unit-done", cid, unit.unit_id, payload)


def _unit_payload(campaign, unit, shard, tracer):
    """What a finished unit hands the parent's merge: its records, its
    metrics dump (the merge folds in the volatile section and
    ``retry_requeues``, and views it as this unit's
    ``timing["shards"]`` entry), which unit it was, and its trace
    events."""
    from ..analysis.serialize import (quarantined_to_dict,
                                      result_to_dict)
    return {
        "results": [result_to_dict(result)
                    for result in campaign.results],
        "quarantined": [quarantined_to_dict(entry)
                        for entry in campaign.quarantined],
        "metrics": campaign.metrics,
        "unit": {"shard": shard, "unit": unit.unit_id,
                 "points": len(unit.points)},
        "trace": tracer.events() if tracer is not None else None,
    }


# ----------------------------------------------------------------------
# Parent side

@dataclass
class WorkerSlot:
    """One long-lived worker's supervision record."""

    worker: int
    max_restarts: int
    incarnation: int = 0
    restarts: int = 0
    status: str = IDLE
    process: object = None
    conn: object = None
    last_beat: float = 0.0
    resume_due: float = 0.0
    dead_since: float | None = None
    #: ``(cid, unit)`` while BUSY.
    current: tuple | None = None
    #: ``(cid, unit)`` the next incarnation resumes: the remainder of
    #: the unit its predecessor failed in (salvaged prefix recorded).
    reserved: tuple | None = None
    #: campaign ids whose context this incarnation has received.
    known: set = field(default_factory=set)


class FleetCampaignState:
    """Parent-side record of one submitted campaign."""

    def __init__(self, cid, daemon, client_name, client_factory,
                 encoding, model, options, scheduler, golden,
                 daemon_factory, tracer, root_cm, root_span, progress,
                 on_unit, events_seen, failures_seen,
                 telemetry_campaign=None, sampler=None):
        self.cid = cid
        self.daemon = daemon
        self.client_name = client_name
        self.client_factory = client_factory
        self.encoding = encoding
        self.model = model
        #: the campaign's :class:`~repro.injection.campaign.RunOptions`
        #: (``ranges`` resolved against the parent's daemon).
        self.options = options
        self.scheduler = scheduler
        self.golden = golden
        self.daemon_factory = daemon_factory
        self.tracer = tracer
        self.root_cm = root_cm
        self.root_span = root_span
        self.progress = progress
        self.on_unit = on_unit
        #: telemetry label (defaults to the fleet-local cid) and the
        #: parent-side profile sampler worker profiles fold into.
        self.telemetry_campaign = (telemetry_campaign
                                   if telemetry_campaign is not None
                                   else cid)
        self.sampler = sampler
        self.started = time.monotonic()
        #: the campaign's volatile measurements so far; the merge folds
        #: its units in and derives the rest from the merged result.
        self.registry = MetricsRegistry()
        #: the fleet's supervision tallies and failure count at submit:
        #: the campaign reports only what happened while it was live.
        self.events_seen = events_seen
        self.failures_seen = failures_seen
        #: unit payloads keyed by unit index (folded in unit order at
        #: finalize).
        self.payloads = {}
        self.partials = {}        # worker -> in-flight progress count
        self.interrupted = None
        #: why the campaign failed (its inline fallback failed too);
        #: :meth:`WorkerFleet.finalize` raises it.
        self.error = None

    @property
    def settled(self):
        """No unit of this campaign will run any more: it finished,
        was checkpointed, or failed."""
        return (self.scheduler.finished or self.interrupted is not None
                or self.error is not None)

    def completed(self):
        return self.scheduler.completed + sum(self.partials.values())

    def report_progress(self):
        if self.progress is not None:
            self.progress(self.completed(), self.scheduler.total)

    def context(self):
        """The picklable campaign context a worker needs."""
        return {
            "cid": self.cid,
            "cell": golden_cell(self.daemon, self.client_name,
                                self.options.budget),
            "client_name": self.client_name,
            "client_factory": self.client_factory,
            "daemon_factory": self.daemon_factory,
            "encoding": self.encoding,
            "fault_model": self.model,
            "options": self.options,
            "sample_period": (self.sampler.period
                              if self.sampler is not None else None),
        }


class WorkerFleet:
    """A persistent fleet of warm workers serving campaign units.

    Lifecycle::

        fleet = WorkerFleet(FleetConfig(workers=4))
        fleet.start()
        cid = fleet.submit(daemon, "Client1", factory,
                           RunOptions(journal=path))
        while not fleet.finished(cid):
            fleet.pump()
        campaign = fleet.finalize(cid)      # CampaignResult
        ...more submits: same workers, warm caches...
        fleet.stop()

    The fleet outlives campaigns (that is its point); `submit` may be
    called while other campaigns are still running, and idle workers
    interleave units from every live campaign.  Workers start on
    :meth:`start` or the first :meth:`pump`, so a campaign resumed
    from complete journals forks none.  Supervision: progress ticks
    are heartbeats, dead or wedged workers are respawned with
    exponential backoff against a per-incarnation restart budget,
    whatever such a worker journaled is salvaged and its next
    incarnation resumes the remainder of its unit; a retired worker's
    remainder goes to the front of the queue for its siblings, and
    when every slot is retired the parent finishes remaining units
    inline with its own daemons.  A unit error requeues the unit and
    respawns its worker at no cost to the budget (:meth:`_unit_error`).
    :meth:`drain` checkpoints every in-flight unit for the service's
    graceful shutdown.
    """

    def __init__(self, config=None, chaos=None, telemetry=None):
        self.config = config if config is not None else FleetConfig()
        if self.config.workers < 1:
            raise ValueError("workers must be >= 1, got %r"
                             % self.config.workers)
        self.chaos = chaos
        #: :class:`~repro.obs.events.EventBus` for live campaign
        #: events (``self.events`` is the fleet's lifetime supervision
        #: tally, a different thing; campaigns report its deltas).
        #: Only the parent emits, on message receipt, so per-campaign
        #: sequence numbers stay contiguous.
        self.telemetry = telemetry
        self.slots = {}
        self.campaigns = {}
        self.events = {name: 0 for name in EVENT_NAMES}
        self.failures = []
        #: parent-side golden cache per campaign cell: the second
        #: submission of a cell skips the reference run entirely.
        self.goldens = {}
        self.context = self._context()
        self._next_cid = 0
        self._assign_rotor = 0
        self._draining = False
        self._started = False
        #: a worker silent this long while busy is wedged; by default
        #: twice the watchdog's wall-clock limit plus slack.
        self._heartbeat_timeout = self.config.heartbeat_timeout
        if self._heartbeat_timeout is None:
            wall = WatchdogConfig().wall_clock_limit or 60.0
            self._heartbeat_timeout = 2.0 * wall + 30.0
        self._inline_tid = self.config.workers + 1

    # -- lifecycle -----------------------------------------------------

    def start(self):
        if self._started:
            return
        self._started = True
        for worker in range(self.config.workers):
            slot = WorkerSlot(worker=worker,
                              max_restarts=self.config.max_restarts)
            self.slots[worker] = slot
            self._spawn(slot)

    def stop(self):
        """Shut the fleet down (workers exit cleanly, then join)."""
        for slot in self.slots.values():
            if slot.conn is not None and slot.process is not None \
                    and slot.process.is_alive():
                try:
                    slot.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + 5.0
        while (any(slot.process is not None
                   and slot.process.is_alive()
                   for slot in self.slots.values())
               and time.monotonic() < deadline):
            self._pump_messages()
        for slot in self.slots.values():
            if slot.process is not None:
                if slot.process.is_alive():
                    slot.process.terminate()
                join_process(slot.process)
            if slot.conn is not None:
                slot.conn.close()
                slot.conn = None
        self._started = False

    def _context(self):
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    def _spawn(self, slot):
        if slot.conn is not None:
            slot.conn.close()
        parent_conn, child_conn = self.context.Pipe()
        # Contexts of campaigns already submitted travel with the
        # fork, unpickled: a private fleet starts after its one
        # submission, so a locally defined daemon factory, client or
        # daemon class works as in a serial run.  Later submissions
        # are sent over the pipe.
        contexts = {cid: state.context()
                    for cid, state in self.campaigns.items()}
        process = self.context.Process(
            target=_fleet_worker_main,
            args=(slot.worker, slot.incarnation, child_conn,
                  self.config, self.chaos, contexts))
        process.daemon = True
        process.start()
        child_conn.close()
        slot.conn = parent_conn
        slot.process = process
        slot.status = IDLE
        slot.current = None
        slot.known = set(contexts)
        slot.last_beat = time.monotonic()
        slot.dead_since = None

    # -- telemetry -----------------------------------------------------

    def _emit(self, state, type, **payload):
        """Campaign-scoped telemetry event."""
        if self.telemetry is not None:
            self.telemetry.emit(type,
                                campaign=state.telemetry_campaign,
                                **payload)

    def _emit_fleet(self, type, **payload):
        """Fleet-scoped (campaign-less) telemetry event: worker
        lifecycle is shared by every live campaign."""
        if self.telemetry is not None:
            self.telemetry.emit(type, **payload)

    # -- submission ----------------------------------------------------

    def submit(self, daemon, client_name, client_factory, options,
               encoding=None, fault_model=None, progress=None,
               daemon_factory=None, on_unit=None,
               telemetry_campaign=None, sampler=None, min_units=1):
        """Submit one campaign; returns its campaign id.

        ``options`` is the campaign's
        :class:`~repro.injection.campaign.RunOptions`; the other
        arguments are the live objects of
        :func:`~repro.injection.campaign.run_campaign`.
        ``on_unit(state, unit, payload)`` is called as each unit
        completes (the service streams from it).  ``min_units``
        spreads a small campaign over at least that many units (a
        fleet dedicated to one campaign passes its worker count, so
        every worker gets work; a shared fleet interleaves campaigns
        instead).  Without ``options.resume`` the campaign starts its
        journal afresh: existing ``<journal>.shardK`` files and the
        base path's unit markers are removed, as the serial runner
        truncates its own journal.
        ``telemetry_campaign`` labels this campaign's events on the
        fleet's bus (default: the fleet-local cid); ``sampler`` (or an
        ``options.profile`` sink) attaches the sampling profiler
        (workers sample their own units, the parent folds the
        profiles and saves the merge at ``options.profile``).
        """
        from .campaign import ENCODING_OLD
        cid = "c%04d" % self._next_cid
        self._next_cid += 1
        if options.ranges is None:
            options = replace(options, ranges=daemon.auth_ranges())
        encoding = encoding if encoding is not None else ENCODING_OLD
        model = get_fault_model(fault_model)
        if daemon_factory is None:
            daemon_factory = default_daemon_factory(daemon)
        # Tracers do not cross process boundaries: the parent's spans
        # go to an in-memory tracer, and finalize merges them with the
        # workers' into the ``options.trace`` sink.
        tracer = Tracer(sink=None)
        root_cm = tracer.span("campaign", workers=self.config.workers,
                              campaign=cid)
        root_span = root_cm.__enter__()
        if sampler is None and options.profile is not None:
            sampler = Sampler()
        sampler = as_sampler(sampler)
        cell = golden_cell(daemon, client_name, options.budget)
        golden = self.goldens.get(cell)
        golden_reused = golden is not None
        if golden is None:
            golden = record_golden_traced(daemon, client_factory,
                                          options.budget, tracer,
                                          sampler)
            self.goldens[cell] = golden
        points = model.enumerate_points(daemon.module, options.ranges,
                                        options.kinds)
        if options.max_points is not None:
            points = points[:options.max_points]
        scheduler = CampaignScheduler(
            points, unit_instructions=self.config.unit_instructions,
            min_units=min_units)
        journal = options.journal
        if journal is not None and not options.resume:
            for path in discover_shard_journals(journal) + [journal]:
                try:
                    os.remove(path)
                except FileNotFoundError:
                    pass
        if options.resume and journal is not None:
            expected = {"daemon": type(daemon).__name__,
                        "client": client_name, "encoding": encoding,
                        "model": model.name, "budget": options.budget}
            metas, results, quarantined = load_shard_journals(
                discover_shard_journals(journal),
                strict=not options.journal_salvage)
            for meta in metas:
                validate_journal_meta(meta, expected, journal)
            scheduler.preload(results, quarantined)
        state = FleetCampaignState(
            cid, daemon, client_name, client_factory, encoding, model,
            options, scheduler, golden, daemon_factory, tracer, root_cm,
            root_span, progress, on_unit, dict(self.events),
            len(self.failures), telemetry_campaign=telemetry_campaign,
            sampler=sampler)
        if golden_reused:
            state.registry.counter("runtime.golden_reused",
                                   volatile=True).inc()
        else:
            state.registry.counter("runtime.golden_runs",
                                   volatile=True).inc()
            count_engine_work(state.registry, golden.perf)
        self.campaigns[cid] = state
        self._emit(state, "golden", reused=golden_reused,
                   coverage_eips=len(golden.coverage))
        self._emit(state, "campaign-started", points=len(points),
                   workers=self.config.workers,
                   resumed=len(scheduler.results))
        _LOGGER.info("campaign %s submitted: %s %s (%d points, "
                     "%s golden)", cid, type(daemon).__name__,
                     client_name, len(points),
                     "warm" if golden_reused else "cold")
        return cid

    def finished(self, cid):
        return self.campaigns[cid].settled

    # -- the supervision loop ------------------------------------------

    def pump(self):
        """One supervision iteration: drain messages, check liveness,
        respawn, assign units, fall back inline when out of workers."""
        if not self._started:
            self.start()
        self._pump_messages()
        now = time.monotonic()
        for slot in list(self.slots.values()):
            if slot.status in (IDLE, BUSY):
                self._check_liveness(slot, now)
            elif slot.status == BACKOFF and now >= slot.resume_due:
                self._respawn(slot)
        if not self._draining:
            self._assign()
            self._inline_fallback()

    def _pump_messages(self):
        by_conn = {slot.conn: slot for slot in self.slots.values()
                   if slot.conn is not None}
        if not by_conn:
            time.sleep(self.config.poll_interval)
            return
        ready = _mp_connection.wait(list(by_conn),
                                    timeout=self.config.poll_interval)
        for conn in ready:
            self._drain_conn(by_conn[conn], conn)

    def _drain_conn(self, slot, conn):
        while True:
            try:
                if not conn.poll():
                    return
                message = conn.recv()
            except (EOFError, OSError) as error:
                # Normal teardown after ``bye``; while the slot still
                # has work it means the worker died mid-send.
                if slot.status == BUSY:
                    self.events["pipe_errors"] += 1
                    _LOGGER.warning(
                        "worker %d incarnation %d: message channel "
                        "torn while busy (%s); worker presumed dead "
                        "mid-send", slot.worker, slot.incarnation,
                        type(error).__name__)
                conn.close()
                if slot.conn is conn:
                    slot.conn = None
                return
            self._handle(slot, message)

    def _handle(self, slot, message):
        kind, worker, incarnation = message[0], message[1], message[2]
        if worker != slot.worker or incarnation != slot.incarnation:
            self.events["stale_messages"] += 1
            return
        slot.last_beat = time.monotonic()
        slot.dead_since = None
        if kind == "hello" or kind == "bye":
            return
        cid = message[3]
        state = self.campaigns.get(cid)
        if state is None:
            self.events["stale_messages"] += 1
            return
        if kind == "progress":
            state.partials[slot.worker] = message[5]
            state.report_progress()
        elif kind == "unit-done":
            unit_id, payload = message[4], message[5]
            self._unit_done(slot, state, unit_id, payload)
        elif kind == "unit-checkpoint":
            self.events["checkpoints"] += 1
            self._release_unit(slot, state, salvage=True)
        elif kind == "unit-error":
            self._unit_error(slot, state, "worker %d incarnation %d: "
                             "unit %s of %s errored:\n%s"
                             % (slot.worker, slot.incarnation,
                                message[4], cid, message[5]))

    def _unit_error(self, slot, state, detail):
        """Charge a unit's error to the unit, not the worker: a
        campaign's own fault (a journal in a missing directory) must
        not retire a shared fleet's workers.  The salvaged remainder
        is requeued, so ``unit_attempts`` bounds it and then the
        parent runs it inline.  The incarnation is suspect (its warm
        state may be what failed), so it is replaced at once, without
        spending its restart budget; deaths and wedges still do."""
        self.events["worker_errors"] += 1
        self.failures.append((slot.worker, detail))
        _LOGGER.warning("%s; requeueing the unit and respawning the "
                        "worker", detail.splitlines()[0])
        slot.process.kill()
        join_process(slot.process)
        self._release_unit(slot, state, salvage=True)
        self._respawn(slot)

    def _unit_done(self, slot, state, unit_id, payload):
        if slot.current is None or slot.current[1].unit_id != unit_id:
            self.events["stale_messages"] += 1
            return
        unit = slot.current[1]
        state.partials.pop(slot.worker, None)
        slot.current = None
        slot.status = IDLE
        self._absorb_unit(state, unit, payload, slot.worker)

    def _absorb_unit(self, state, unit, payload, worker, **flags):
        """Fold a finished unit's payload into its campaign, then
        report it: journal marker, telemetry, progress, ``on_unit``."""
        from ..analysis.serialize import point_from_dict
        scheduler = state.scheduler
        for record in payload["results"]:
            scheduler.record(_record_key(record), record)
        for record in payload["quarantined"]:
            key = _point_key(point_from_dict(record["point"]))
            scheduler.record_quarantine(key, record)
        scheduler.complete(unit)
        state.payloads[unit.index] = payload
        if state.sampler is not None:
            state.sampler.absorb_dict(payload.get("profile"))
        self._mark_unit(state, unit, status="done",
                        records=len(payload["results"])
                        + len(payload["quarantined"]))
        self._emit(state, "unit-finished", unit=unit.unit_id,
                   worker=worker, results=len(payload["results"]),
                   quarantined=len(payload["quarantined"]),
                   completed=scheduler.completed,
                   total=scheduler.total, **flags)
        if self.telemetry is not None:
            self.telemetry.emit_outcomes(state.telemetry_campaign,
                                         payload["results"])
        state.report_progress()
        if state.on_unit is not None:
            state.on_unit(state, unit, payload)

    def _mark_unit(self, state, unit, status, records=0, worker=None):
        """Parent-side unit marker in the *base* journal (workers own
        only their ``.shardK`` files, so the base path has a single
        appender and carries pure progress metadata: ``repro status``
        and ``repro top`` read in-flight units and the live ETA from
        it)."""
        if state.options.journal is None:
            return
        try:
            CampaignJournal.mark_unit(
                state.options.journal, unit.unit_id, records,
                campaign=state.cid, status=status,
                total=state.scheduler.total)
        except OSError:
            pass          # advisory metadata only, never fatal

    def _release_unit(self, slot, state, salvage, requeue=True):
        """Give a unit back to its scheduler (worker checkpointed,
        errored or died): salvage what its journal holds, then requeue
        the uncovered remainder (or, with ``requeue=False``, only
        register it).  Returns the remainder unit, or ``None`` when
        nothing is left to run."""
        if slot.current is None:
            return None
        unit = slot.current[1]
        slot.current = None
        state.partials.pop(slot.worker, None)
        if slot.status == BUSY:
            slot.status = IDLE
        if salvage:
            self._salvage_unit(state, unit, slot.worker)
        if requeue:
            return state.scheduler.requeue(unit)
        return state.scheduler.remainder(unit)

    def _salvage_unit(self, state, unit, worker):
        """Recover what a worker already journaled for *unit* (only
        its own points: the worker journal also holds earlier units,
        whose payloads were already counted)."""
        if state.options.journal is None:
            return
        path = shard_journal_path(state.options.journal, worker)
        try:
            __, results, quarantined = CampaignJournal.load(
                path, strict=False)
        except (FileNotFoundError, JournalError):
            return
        unit_keys = set(unit.keys)
        new_results = {
            key: record for key, record in results.items()
            if key in unit_keys and key not in state.scheduler.results}
        new_quarantined = {
            key: record for key, record in quarantined.items()
            if key in unit_keys
            and key not in state.scheduler.quarantined}
        for key, record in new_results.items():
            state.scheduler.record(key, record)
        for key, record in new_quarantined.items():
            state.scheduler.record_quarantine(key, record)
        salvaged = len(new_results) + len(new_quarantined)
        if salvaged:
            self.events["salvaged_points"] += salvaged
            _LOGGER.info("salvaged %d journaled record(s) of unit %s "
                         "from worker %d", salvaged, unit.unit_id,
                         worker)

    # -- liveness / respawn --------------------------------------------

    def _check_liveness(self, slot, now):
        process = slot.process
        if not process.is_alive():
            if slot.dead_since is None:
                slot.dead_since = now
            elif now - slot.dead_since >= self.config.dead_grace:
                self._failure(
                    slot, "worker %d incarnation %d died (exit code "
                    "%s)" % (slot.worker, slot.incarnation,
                             process.exitcode))
        elif (slot.status == BUSY and self._heartbeat_timeout
                and now - slot.last_beat > self._heartbeat_timeout):
            self.events["wedged"] += 1
            process.kill()
            join_process(process)
            self._failure(
                slot, "worker %d incarnation %d wedged: no heartbeat "
                "for %.0fs" % (slot.worker, slot.incarnation,
                               now - slot.last_beat))

    def _failure(self, slot, detail):
        self.failures.append((slot.worker, detail))
        slot.dead_since = None
        # The remainder of the failed unit stays with this worker: its
        # next incarnation resumes it from the worker's shard journal,
        # and only a retired worker's remainder migrates to siblings.
        reserved, slot.reserved = slot.reserved, None
        if slot.current is not None:
            cid = slot.current[0]
            state = self.campaigns.get(cid)
            remainder = (None if state is None else self._release_unit(
                slot, state, salvage=True, requeue=False))
            reserved = None if remainder is None else (cid, remainder)
        if slot.restarts >= slot.max_restarts:
            slot.status = RETIRED
            self.events["failed_shards"] += 1
            state = (None if reserved is None
                     else self.campaigns.get(reserved[0]))
            if state is not None:
                state.scheduler.push(reserved[1])
                self.events["degraded"] += 1
                self.events["degraded_points"] += len(reserved[1])
            self._emit_fleet("worker-retired", worker=slot.worker,
                             incarnation=slot.incarnation,
                             restarts=slot.restarts)
            _LOGGER.warning(
                "%s after %d restart(s); retiring worker %d (its "
                "units migrate to siblings)", detail.splitlines()[0],
                slot.restarts, slot.worker)
            return
        slot.restarts += 1
        slot.reserved = reserved
        delay = backoff_delay(self.config, slot.restarts)
        slot.status = BACKOFF
        slot.resume_due = time.monotonic() + delay
        self._emit_fleet("worker-backoff", worker=slot.worker,
                         incarnation=slot.incarnation,
                         restarts=slot.restarts, delay=round(delay, 3))
        _LOGGER.warning("%s; respawning in %.1fs (restart %d/%d)",
                        detail.splitlines()[0], delay, slot.restarts,
                        slot.max_restarts)

    def _respawn(self, slot):
        self.events["respawns"] += 1
        slot.incarnation += 1
        self._emit_fleet("worker-respawn", worker=slot.worker,
                         incarnation=slot.incarnation,
                         restarts=slot.restarts)
        for state in self.campaigns.values():
            state.tracer.instant(
                "fleet-respawn", cat="supervisor", worker=slot.worker,
                incarnation=slot.incarnation)
        _LOGGER.info("respawning worker %d (incarnation %d)",
                     slot.worker, slot.incarnation)
        self._spawn(slot)

    # -- assignment ----------------------------------------------------

    def _assign(self):
        idle = [slot for slot in self.slots.values()
                if slot.status == IDLE and slot.process is not None
                and slot.process.is_alive()]
        for slot in idle:
            if slot.reserved is not None:
                self._resume_reserved(slot)
        idle = [slot for slot in idle
                if slot.status == IDLE and slot.reserved is None]
        if not idle:
            return
        cids = sorted(cid for cid, state in self.campaigns.items()
                      if not state.settled)
        if not cids:
            return
        for slot in idle:
            assigned = False
            for offset in range(len(cids)):
                cid = cids[(self._assign_rotor + offset) % len(cids)]
                state = self.campaigns[cid]
                unit = None if state.settled else state.scheduler.take()
                if unit is None:
                    continue
                if state.scheduler.attempts(unit) \
                        > self.config.unit_attempts:
                    # taken from the queue too often: the parent
                    # finishes it with its own daemon.
                    self._complete_inline(state, unit)
                    continue
                if self._dispatch(slot, state, unit):
                    self._assign_rotor = (self._assign_rotor + offset
                                          + 1) % len(cids)
                    assigned = True
                    break
                state.scheduler.requeue(unit)
            if not assigned:
                return

    def _resume_reserved(self, slot):
        """Hand a respawned incarnation the unit its predecessor
        failed in, unless that campaign is gone or settled."""
        cid, unit = slot.reserved
        state = self.campaigns.get(cid)
        if state is None or state.settled \
                or self._dispatch(slot, state, unit):
            slot.reserved = None

    def _dispatch(self, slot, state, unit):
        try:
            if state.cid not in slot.known:
                slot.conn.send(("campaign", state.context()))
                slot.known.add(state.cid)
            slot.conn.send(("unit", state.cid, unit))
        except (BrokenPipeError, OSError, AttributeError):
            # dead worker caught at send time; liveness will handle it
            return False
        slot.current = (state.cid, unit)
        slot.status = BUSY
        slot.last_beat = time.monotonic()
        self._mark_unit(state, unit, status="started")
        self._emit(state, "unit-started", unit=unit.unit_id,
                   worker=slot.worker, points=len(unit.points))
        return True

    # -- inline fallback -----------------------------------------------

    def _inline_fallback(self):
        """When every slot is retired, finish remaining units in the
        parent process with the campaigns' own daemons (which are
        known-good: they enumerated and ran golden)."""
        if any(slot.status in (IDLE, BUSY, BACKOFF)
               for slot in self.slots.values()):
            return
        for state in list(self.campaigns.values()):
            while not state.settled:
                unit = state.scheduler.take()
                if unit is None:
                    break
                self._complete_inline(state, unit)

    def _complete_inline(self, state, unit):
        """Run *unit* inline; the last resort, so its failure fails
        the campaign (and only that campaign: :meth:`finalize` raises
        the error), naming the worker failures seen while it was
        live."""
        try:
            self._run_unit_inline(state, unit)
        except Exception as error:
            details = "\n".join(
                "worker %d: %s" % failure
                for failure in self.failures[state.failures_seen:])
            state.error = RuntimeError(
                "campaign could not self-heal: inline completion of "
                "unit %s failed after worker failure(s):\n%s"
                % (unit.unit_id, details))
            state.error.__cause__ = error
            _LOGGER.error("campaign %s failed: %s", state.cid,
                          state.error)

    def _run_unit_inline(self, state, unit):
        self.events["inline_points"] += len(unit.points)
        _LOGGER.warning("running unit %s of %s inline in the parent "
                        "(%d points)", unit.unit_id, state.cid,
                        len(unit.points))
        tracer = (Tracer(sink=None, tid=self._inline_tid + 1)
                  if state.options.trace is not None else None)
        runner = CampaignRunner(
            state.daemon, state.client_name, state.client_factory,
            _unit_options(state.options, self._inline_tid,
                          journal_salvage=True),
            encoding=state.encoding, fault_model=state.model,
            points=list(unit.points), tracer=tracer, trace_root="shard",
            trace_attrs={"shard": self._inline_tid,
                         "unit": unit.unit_id, "inline": True},
            golden=state.golden,
            # inline units run in the parent, feeding the campaign's
            # own sampler directly (no profile payload to fold).
            sampler=state.sampler)
        self._mark_unit(state, unit, status="started")
        self._emit(state, "unit-started", unit=unit.unit_id,
                   worker=self._inline_tid, points=len(unit.points),
                   inline=True)
        payload = _unit_payload(runner.run(), unit, self._inline_tid,
                                tracer)
        payload["unit"]["inline"] = True
        self._absorb_unit(state, unit, payload, self._inline_tid,
                          inline=True)

    # -- checkpoint drain ----------------------------------------------

    def drain(self, reason):
        """Graceful checkpoint: SIGTERM busy workers, collect their
        unit checkpoints, mark every unfinished campaign interrupted.
        The fleet stays alive (idle workers keep their warm caches);
        call :meth:`stop` to shut it down."""
        self._draining = True
        self.events["checkpoint_exits"] += 1
        _LOGGER.warning("checkpoint requested (%s): draining fleet",
                        reason)
        for state in self.campaigns.values():
            state.tracer.instant("fleet-checkpoint", cat="supervisor",
                                 reason=reason)
        for slot in self.slots.values():
            if slot.status == BUSY and slot.process is not None \
                    and slot.process.is_alive():
                slot.process.terminate()
        deadline = time.monotonic() + self.config.drain_timeout
        while (any(slot.status == BUSY for slot in self.slots.values())
               and time.monotonic() < deadline):
            self._pump_messages()
            for slot in self.slots.values():
                if slot.status == BUSY and slot.process is not None \
                        and not slot.process.is_alive() \
                        and slot.conn is None:
                    # died instead of checkpointing: salvage + requeue
                    cid = slot.current[0]
                    state = self.campaigns.get(cid)
                    if state is not None:
                        self._release_unit(slot, state, salvage=True)
        self._pump_messages()
        for slot in self.slots.values():
            if slot.status != BUSY:
                continue
            if slot.process is not None and slot.process.is_alive():
                slot.process.kill()
                join_process(slot.process)
            cid, state = slot.current[0], None
            state = self.campaigns.get(cid)
            if state is not None:
                self._release_unit(slot, state, salvage=True)
            slot.status = RETIRED
        for state in self.campaigns.values():
            if not state.settled:
                state.interrupted = reason
                self._emit(state, "checkpoint", reason=reason,
                           completed=state.scheduler.completed)
        self._draining = False

    # -- finalize ------------------------------------------------------

    def finalize(self, cid):
        """Merge a finished campaign into a
        :class:`~repro.injection.campaign.CampaignResult` (or raise
        :class:`~repro.injection.runner.CampaignInterrupted` for a
        drained one, or the error of a failed one); flushes its
        observability sinks either way and forgets the campaign."""
        state = self.campaigns.pop(cid)
        state.root_span.set("experiments",
                            len(state.scheduler.results))
        try:
            state.root_cm.__exit__(None, None, None)
        except Exception:
            pass
        if state.error is not None:
            self._flush_observability(state, None)
            raise state.error
        with host_phase(state.sampler, "merge"):
            campaign = self._merge(state)
        interrupted = state.interrupted or (
            None if state.scheduler.finished else "incomplete")
        if interrupted is None:
            self._emit(state, "campaign-finished",
                       counts=campaign.counts(),
                       quarantined=len(campaign.quarantined))
        self._flush_observability(state, state.registry)
        if interrupted is not None:
            raise CampaignInterrupted(
                interrupted, journal=state.options.journal,
                completed=state.scheduler.completed)
        return campaign

    def _flush_observability(self, state, registry):
        options = state.options
        if options.profile is not None and state.sampler is not None:
            state.sampler.save(options.profile)
        if options.trace is not None:
            events = list(state.tracer.events())
            for index in sorted(state.payloads):
                unit_events = state.payloads[index].get("trace")
                if unit_events:
                    events.extend(unit_events)
            merge_trace_files(options.trace, events, [])
        if options.metrics is not None and registry is not None:
            registry.save(options.metrics)

    def _merge(self, state):
        """The campaign's records in enumeration order -- all of them,
        or on a checkpoint the completed ones -- with metrics and
        timing derived from them (:func:`finish_campaign`): the core
        comes out identical to a serial run's, and the supervision
        counters are what the fleet saw while the campaign was live."""
        from ..analysis.serialize import (quarantined_from_dict,
                                          result_from_dict)
        from .campaign import CampaignResult
        scheduler = state.scheduler
        campaign = CampaignResult(
            daemon_name=type(state.daemon).__name__,
            client_name=state.client_name, encoding=state.encoding,
            fault_model=state.model.name, golden=state.golden)
        campaign.results = [result_from_dict(record)
                            for record in scheduler.merged_results()]
        campaign.quarantined = [
            quarantined_from_dict(record)
            for record in scheduler.merged_quarantined()]
        registry = state.registry
        registry.counter("runtime.resumed", volatile=True).inc(
            len(scheduler.resumed))
        for name in EVENT_NAMES:
            registry.counter("supervisor." + name, volatile=True).inc(
                self.events[name] - state.events_seen[name])
        finish_campaign(
            campaign, registry, scheduler.total,
            time.monotonic() - state.started,
            workers=self.config.workers,
            units=[state.payloads[index]
                   for index in sorted(state.payloads)])
        return campaign


# ----------------------------------------------------------------------
# One-shot facade (what run_campaign(workers=N) uses)

def run_fleet_campaign(daemon, client_name, client_factory, workers=2,
                       fleet=None, config=None, chaos=None,
                       deadline=None, graceful_signals=False,
                       telemetry=None, options=None, **kwargs):
    """Run one campaign on a (possibly shared) warm fleet.

    With ``fleet=None`` a private fleet of ``workers`` (or ``config``)
    runs the campaign and is stopped afterwards -- the path of
    ``run_campaign(workers=N)``.  A private fleet serves exactly one
    campaign, so it spreads that campaign over every worker.
    Passing an existing :class:`WorkerFleet` reuses its warm workers
    (and leaves it running).  ``deadline``/``graceful_signals``
    checkpoint the campaign through :meth:`WorkerFleet.drain`, raising
    :class:`~repro.injection.runner.CampaignInterrupted`.

    ``options`` is the campaign's
    :class:`~repro.injection.campaign.RunOptions`; without it, the
    keyword arguments naming its fields (``max_points=``,
    ``journal=``, ...) build one, as :func:`run_campaign` does.  The
    remaining keywords (``encoding``, ``fault_model``, ``progress``,
    ...) go to :meth:`WorkerFleet.submit`.
    """
    if options is None:
        from .campaign import RunOptions
        options = RunOptions(**{
            name: kwargs.pop(name) for name in list(kwargs)
            if name in RunOptions.__dataclass_fields__})
    owns = fleet is None
    if fleet is None:
        if config is None:
            config = FleetConfig(workers=workers)
        fleet = WorkerFleet(config, chaos=chaos, telemetry=telemetry)
    try:
        with checkpoint_requests(deadline, graceful_signals) as stop_check:
            cid = fleet.submit(
                daemon, client_name, client_factory, options,
                min_units=fleet.config.workers if owns else 1, **kwargs)
            while not fleet.finished(cid):
                fleet.pump()
                reason = stop_check()
                if reason is not None:
                    fleet.drain(reason)
                    break
            return fleet.finalize(cid)
    finally:
        if owns:
            fleet.stop()
