"""The benchmark's three workloads and the measurements they take.

Each workload has ``setup`` (compile its daemons; for the service also
start ``repro serve``), ``run_pass`` (one fixed amount of work; the
service draws its submission order from the seeded ``rng``) and
``teardown``.  A pass
accumulates into a :class:`Measurement`: the points and campaigns it
tallied, the wall clock from its first campaign call to its last
rendered output, every failure it saw, and what the result records and
events say about work done in other processes.  Outputs are checked
against ``reference.json`` after the wall clock stops.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import nullcontext

from repro.analysis import (build_histogram, build_model_table,
                            build_table1, build_table3, build_table5,
                            format_histogram, format_model_table,
                            format_table1, format_table3, format_table5,
                            result_to_dict)
from repro.apps.registry import available_daemons, get_daemon_spec
from repro.injection import run_campaign
from repro.injection.campaign import CampaignSpec
from repro.obs.events import EventBus
from repro.service import ServiceClient, ServiceError

import reference

clock = time.perf_counter

DAEMONS = ("ftpd", "sshd", "pop3d")

#: the paper's own matrix: exhaustive branch-bit campaigns, both
#: encodings, Client1 of every daemon (7 392 points).
PAPER_CELLS = [CampaignSpec(daemon=daemon, client="Client1",
                            encoding=encoding, fault_model="branch-bit")
               for daemon in DAEMONS for encoding in ("old", "new")]

#: the fault-model sweep run on the library's parallel engine with
#: pruning (5 544 + 1 281 points).
MODEL_CELLS = [CampaignSpec(daemon="ftpd", client="Client2",
                            fault_model="register-bit"),
               CampaignSpec(daemon="sshd", client="Client2",
                            fault_model="burst2")]
MODEL_WORKERS = 2

SERVICE_MODELS = ("branch-bit", "register-bit", "burst2")
SERVICE_MAX_POINTS = (24, 48, 96)
SERVICE_SECOND_SIZE = 48
#: fixes the (daemon, fault model, size) slot order of every pass
SERVICE_SLOT_SEED = 0
SERVICE_WORKERS = 2
SERVICE_CONNECTIONS = 2

#: ``repro serve`` must accept a connection within this long.
SERVER_START_TIMEOUT = 60.0
SERVER_STOP_TIMEOUT = 60.0


def service_cells():
    """daemon x client x model, every registered client of each
    daemon (27 cells)."""
    return [CampaignSpec(daemon=daemon, client=client,
                         fault_model=model)
            for daemon in available_daemons()
            for client in get_daemon_spec(daemon).clients()
            for model in SERVICE_MODELS]


def service_sequence(rng):
    """One closed-loop pass: every cell at every ``max_points`` size,
    plus a second, middle-sized submission per cell (108 submissions,
    so p90 has ten samples beyond it).

    The order of (daemon, fault model, size) slots is one fixed
    shuffle; the seed deals each slot its client.  The p90 tail is set
    by which large campaigns share the fleet with which, and daemons
    differ most in cost: a fully seeded order moved p90 by a fifth
    from seed to seed, while one seed repeated moved it by a twentieth.
    """
    cells = service_cells()
    sizes = SERVICE_MAX_POINTS + (SERVICE_SECOND_SIZE,)
    slots = [(spec.daemon, spec.fault_model, size)
             for spec in cells for size in sizes]
    random.Random(SERVICE_SLOT_SEED).shuffle(slots)
    deals = {}
    for daemon, model, size in sorted(set(slots)):
        deal = [spec.client for spec in cells
                if (spec.daemon, spec.fault_model) == (daemon, model)
                for __ in range(sizes.count(size))]
        rng.shuffle(deal)
        deals[(daemon, model, size)] = deal
    return [(CampaignSpec(daemon=daemon, client=deals[slot].pop(),
                          fault_model=model), size)
            for slot in slots for daemon, model, size in [slot]]


def render_paper_outputs(campaigns):
    """Tables 1/3/5 and Figure 4 from ``[(spec, campaign)]`` over
    :data:`PAPER_CELLS`."""
    by_spec = dict(campaigns)
    old = [by_spec[spec] for spec in PAPER_CELLS if spec.encoding == "old"]
    pairs = [(by_spec[spec], by_spec[CampaignSpec(
        daemon=spec.daemon, client=spec.client, encoding="new",
        fault_model=spec.fault_model)])
        for spec in PAPER_CELLS if spec.encoding == "old"]
    figure4 = build_histogram(old[0].crash_latencies())
    return {
        "table1": format_table1(build_table1(old),
                                "Table 1: result distributions, "
                                "old encoding, Client1"),
        "table3": format_table3(build_table3(old)),
        "table5": format_table5(build_table5(pairs)),
        "figure4": format_histogram(figure4),
    }


def compile_daemons():
    return {daemon: CampaignSpec(daemon=daemon).build_daemon()
            for daemon in DAEMONS}


class Measurement:
    """Everything one run measured, across its passes."""

    def __init__(self, reference_data, tracer=None):
        self.reference = reference_data
        self.tracer = tracer
        #: ``progress`` callback for serial campaigns (the inline
        #: host-speed calibration), or ``None``
        self.progress = None
        self.wall = 0.0
        self.points = 0
        #: (start, end) of every campaign, ``time.perf_counter``
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        #: decode-cache lookups and experiments executed, from every
        #: campaign's timing record.
        self.perf = Counter()
        self.executed = 0
        #: work other processes reported in result records: guest
        #: instructions (prepared-op lookups), syscalls, golden runs
        #: and breakpoint prefix runs.
        self.remote = Counter()
        #: summed wall clock of the worker processes' shards (units,
        #: on the fleet), and how many workers the engine ran
        self.shard_wall = 0.0
        self.workers = 0
        #: service: per-campaign phase durations; fleet reuse counters
        self.phases = {"accept": [], "first_unit": [], "finalize": []}
        self.fleet = Counter()

    def span(self, name, request=None):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, request)

    def fail(self, what, operations=1):
        self.failed += operations
        self.failures.append(what)

    # -- output checks -------------------------------------------------

    def check_records(self, label, records, quarantined, expected):
        """Tally one campaign's points: HF records, quarantined points
        and any difference from the reference digest are failures."""
        self.attempted += len(records) + quarantined
        harness = sum(1 for record in records
                      if record["outcome"] == "HF")
        if harness:
            self.fail("%s: %d harness-fault record(s)" % (label, harness),
                      harness)
        if quarantined:
            self.fail("%s: %d quarantined point(s)" % (label, quarantined),
                      quarantined)
        if reference.records_digest(records) != expected:
            self.fail("%s: records differ from the reference" % label)

    def check_campaign(self, spec, campaign):
        label = reference.cell_name(spec)
        expected = self.reference["cells"][label]
        records = [result_to_dict(result) for result in campaign.results]
        self.check_records(label, records, len(campaign.quarantined),
                           expected["records_sha256"])
        outcomes = reference.outcome_string(records)
        if outcomes != expected["outcomes"]:
            differing = sum(1 for got, want
                            in zip(outcomes, expected["outcomes"])
                            if got != want) + abs(
                len(outcomes) - len(expected["outcomes"]))
            self.fail("%s: %d per-point outcome(s) differ"
                      % (label, differing), differing)
        if campaign.crash_latencies() != expected["crash_latencies"]:
            self.fail("%s: Figure 4 crash latencies differ" % label)

    def check_renders(self, renders):
        for name, text in sorted(renders.items()):
            self.attempted += 1
            if (reference.text_digest(text)
                    != self.reference["renders"][name]):
                self.fail("rendered %s differs from the reference" % name)

    def absorb_timing(self, timing):
        perf = timing.get("perf") or {}
        self.perf.update({name: perf.get(name, 0) for name
                          in ("prepared_hits", "prepared_misses")})
        self.executed += timing.get("executed", 0)

    def absorb_shards(self, timing):
        """Work the engine's worker processes did, from the per-shard
        (per-unit, on the fleet) timing records: guest instructions as
        prepared-op lookups, syscalls, and busy wall clock."""
        for shard in timing.get("shards") or ():
            perf = shard.get("perf") or {}
            self.remote["instructions"] += (perf.get("prepared_hits", 0)
                                            + perf.get("prepared_misses",
                                                       0))
            self.remote["syscalls"] += perf.get("syscalls", 0)
            self.shard_wall += shard.get("wall_clock", 0.0)


class PaperSerial:
    """Serial, exhaustive branch-bit campaigns under both encodings for
    Client1 of ftpd, sshd and pop3d, then Tables 1/3/5 and Figure 4."""

    name = "paper-serial"
    inline_calibration = True

    def __init__(self, workdir):
        self.workdir = workdir
        self.daemons = None

    def setup(self):
        self.daemons = compile_daemons()

    def teardown(self):
        pass

    def run_pass(self, measurement, rng):
        campaigns = []
        started = clock()
        for index, spec in enumerate(PAPER_CELLS):
            journal = os.path.join(self.workdir, "cell%d.jsonl" % index)
            begin = clock()
            with measurement.span("campaign", reference.cell_name(spec)):
                campaign = run_campaign(
                    self.daemons[spec.daemon], spec.client,
                    spec.client_factory(), encoding=spec.encoding,
                    fault_model=spec.fault_model, journal=journal,
                    progress=measurement.progress)
            measurement.latencies.append((begin, clock()))
            campaigns.append((spec, campaign))
        with measurement.span("analysis.render"):
            renders = render_paper_outputs(campaigns)
        measurement.wall += clock() - started
        for index in range(len(PAPER_CELLS)):
            os.remove(os.path.join(self.workdir, "cell%d.jsonl" % index))
        for spec, campaign in campaigns:
            measurement.points += len(campaign.results) \
                + len(campaign.quarantined)
            measurement.absorb_timing(campaign.timing)
            measurement.check_campaign(spec, campaign)
        measurement.check_renders(renders)
        self._check_table1(measurement, campaigns)

    @staticmethod
    def _check_table1(measurement, campaigns):
        """The old-encoding Client1 tallies are the paper numbers the
        repository commits as its oracle."""
        with open(os.path.join("benchmarks", "results",
                               "table1_counts.json")) as handle:
            oracle = json.load(handle)
        for spec, campaign in campaigns:
            if spec.encoding != "old":
                continue
            measurement.attempted += 1
            expected = oracle[spec.daemon][spec.client]["counts"]
            if campaign.counts() != expected:
                measurement.fail("%s: tally %s != table1_counts.json %s"
                                 % (reference.cell_name(spec),
                                    campaign.counts(), expected))


class ModelsParallel:
    """ftpd Client2 x register-bit and sshd Client2 x burst2 through
    ``run_campaign(workers=2, prune=True)``."""

    name = "models-parallel"
    inline_calibration = False

    def __init__(self, workdir):
        self.workdir = workdir
        self.daemons = None

    def setup(self):
        self.daemons = compile_daemons()

    def teardown(self):
        pass

    def run_pass(self, measurement, rng):
        measurement.workers = MODEL_WORKERS
        campaigns = []
        started = clock()
        for spec in MODEL_CELLS:
            tracer = measurement.tracer
            options, phases = {}, nullcontext()
            if tracer is not None:
                options["telemetry"] = self._phase_bus(tracer)
                phases = tracer.phases("injection.parallel.startup")
            begin = clock()
            with measurement.span("campaign",
                                  reference.cell_name(spec)), phases:
                campaign = run_campaign(
                    self.daemons[spec.daemon], spec.client,
                    spec.client_factory(), encoding=spec.encoding,
                    fault_model=spec.fault_model,
                    workers=MODEL_WORKERS, prune=True, **options)
            measurement.latencies.append((begin, clock()))
            campaigns.append((spec, campaign))
        with measurement.span("analysis.render"):
            format_model_table(build_model_table(
                [campaign for __, campaign in campaigns]))
        measurement.wall += clock() - started
        for spec, campaign in campaigns:
            measurement.points += len(campaign.results) \
                + len(campaign.quarantined)
            measurement.absorb_timing(campaign.timing)
            measurement.absorb_shards(campaign.timing)
            # every shard worker records its own golden run
            measurement.remote["golden_runs"] += len(
                campaign.timing.get("shards") or ())
            counters = campaign.metrics["volatile"]["counters"]
            measurement.remote["prefix_runs"] += counters.get(
                "runtime.sessions", 0)
            measurement.check_campaign(spec, campaign)
        if measurement.tracer is not None:
            self._replay_plans(campaigns)

    @staticmethod
    def _phase_bus(tracer):
        """An event bus whose ``campaign-started`` and
        ``campaign-finished`` events (emitted on this thread, inside
        the ``run_campaign`` call) end one engine phase span and open
        the next: startup -> run -> merge."""
        bus = EventBus()
        following = {"campaign-started": "injection.parallel.run",
                     "campaign-finished": "injection.parallel.merge"}

        def on_event(event):
            name = following.get(event["type"])
            if name is not None:
                tracer.switch(name)
        bus.subscribe(on_event)
        return bus

    def _replay_plans(self, campaigns):
        """Pruning plans are built inside the shard workers, which are
        not traced; rebuild each campaign's plan here, on the same
        inputs and after the wall clock stopped, to time the planning
        layer."""
        for spec, campaign in campaigns:
            daemon = self.daemons[spec.daemon]
            model = spec.model()
            ranges = daemon.auth_ranges()
            points = model.enumerate_points(daemon.module, ranges)
            model.classify_points(daemon.module, points, spec.encoding,
                                  campaign.golden.coverage, ranges)


class ServiceLoop:
    """A ``repro serve --workers 2`` subprocess driven in a closed loop
    by two ``ServiceClient`` connections."""

    name = "service-loop"
    inline_calibration = False

    def __init__(self, workdir):
        self.workdir = workdir
        self.socket_path = os.path.relpath(
            os.path.join(workdir, "service.sock"))
        self.server = None
        self.log = None

    def setup(self):
        # The server compiles its own daemons on first use; compiling
        # here too keeps setup_s (and cc.compile_s) one definition for
        # every workload.
        compile_daemons()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath("src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.log = open(os.path.join(self.workdir, "serve.log"), "ab")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--workers", str(SERVICE_WORKERS),
             "--socket", self.socket_path],
            env=env, stdout=self.log, stderr=subprocess.STDOUT)
        deadline = clock() + SERVER_START_TIMEOUT
        while True:
            if self.server.poll() is not None:
                raise RuntimeError("repro serve exited with %s"
                                   % self.server.returncode)
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(self.socket_path)
                return
            except OSError:
                if clock() > deadline:
                    raise RuntimeError("repro serve did not accept "
                                       "within %ds" % SERVER_START_TIMEOUT)
                time.sleep(0.005)
            finally:
                probe.close()

    def teardown(self):
        if self.server is not None:
            if self.server.poll() is None:
                self.server.send_signal(signal.SIGTERM)
                try:
                    self.server.wait(SERVER_STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    self.server.kill()
                    self.server.wait()
            self.server = None
        if self.log is not None:
            self.log.close()
            self.log = None
        if os.path.exists(self.socket_path):
            os.remove(self.socket_path)

    def run_pass(self, measurement, rng):
        measurement.workers = SERVICE_WORKERS
        items = iter(service_sequence(rng))
        lock = threading.Lock()
        finished = []

        def connection():
            with ServiceClient(self.socket_path) as client:
                while True:
                    with lock:
                        item = next(items, None)
                    if item is None:
                        return
                    finished.append(self._campaign(client, *item))

        threads = [threading.Thread(target=connection)
                   for __ in range(SERVICE_CONNECTIONS)]
        started = clock()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        measurement.wall += clock() - started
        for outcome in finished:
            self._account(measurement, outcome)

    @staticmethod
    def _campaign(client, spec, size):
        """Submit one campaign and stream it to its terminal event;
        returns what happened with the arrival time of each event."""
        outcome = {"spec": spec, "size": size, "submitted": clock(),
                   "records": [], "error": None}
        try:
            accepted = client.submit(spec, max_points=size)
            outcome["accepted"] = clock()
            for event in client.events(accepted["campaign"]):
                now = clock()
                if event["event"] == "unit":
                    outcome["records"].extend(event["results"])
                    outcome.setdefault("first_unit", now)
                    outcome["last_unit"] = now
                elif event["event"] == "done":
                    outcome["done"] = now
                    outcome["event"] = event
                else:
                    outcome["error"] = "%s event" % event["event"]
        except (ServiceError, OSError, ValueError) as error:
            outcome["error"] = "%s: %s" % (type(error).__name__, error)
        return outcome

    @staticmethod
    def _account(measurement, outcome):
        spec, size = outcome["spec"], outcome["size"]
        label = reference.cell_name(spec, size)
        measurement.attempted += 1       # the submission itself
        if outcome["error"] is not None or "done" not in outcome:
            measurement.fail("%s: %s" % (label, outcome["error"]
                                         or "no done event"))
            return
        records = sorted(outcome["records"],
                         key=lambda record: record["order"])
        done = outcome["event"]
        measurement.points += len(records) + done["quarantined"]
        measurement.check_records(label, records, done["quarantined"],
                                  measurement.reference["service"][label])
        submitted, accepted = outcome["submitted"], outcome["accepted"]
        first = outcome.get("first_unit", accepted)
        last = outcome.get("last_unit", first)
        finished = outcome["done"]
        measurement.latencies.append((submitted, finished))
        measurement.phases["accept"].append(accepted - submitted)
        measurement.phases["first_unit"].append(first - accepted)
        measurement.phases["finalize"].append(finished - last)
        timing = done.get("timing") or {}
        measurement.absorb_timing(timing)
        counters = (done.get("metrics") or {}).get(
            "volatile", {}).get("counters", {})
        for name in ("golden_runs", "golden_reused", "sessions",
                     "sessions_reused"):
            measurement.fleet[name] += counters.get("runtime." + name, 0)
        measurement.absorb_shards(timing)
        measurement.remote["golden_runs"] += counters.get(
            "runtime.golden_runs", 0)
        measurement.remote["prefix_runs"] += counters.get(
            "runtime.sessions", 0)
        tracer = measurement.tracer
        if tracer is not None:
            request = "%s:%s" % (done["campaign"], label)
            root = tracer.add("service.campaign", submitted, finished,
                              request=request)
            for name, start, end in (
                    ("service.accept", submitted, accepted),
                    ("service.first_unit", accepted, first),
                    ("service.stream", first, last),
                    ("service.finalize", last, finished)):
                tracer.add(name, start, end, parent=root, request=request)


WORKLOADS = {cls.name: cls for cls in (PaperSerial, ModelsParallel,
                                       ServiceLoop)}
