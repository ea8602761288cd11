"""Shared state for the benchmark suite.

Campaigns are expensive (seconds each), and several benchmarks consume
the same ones (Table 1 columns feed Table 3 and Figure 4).  A lazy
session-scoped cache runs each campaign exactly once per pytest
session; the bench that first needs a campaign pays for (and times)
it.

``--workers N`` runs every cached campaign on N worker processes
(``run_campaign(workers=N)``, the warm fleet of
:mod:`repro.injection.fleet`); tallies are identical to a serial run,
so every table/assertion below is unaffected -- only the wall clock
changes.  Each campaign's timing record (wall clock,
experiments/sec, per-work-unit breakdown) is kept on the cache and dumped
into the benchmarks' results JSON so the perf trajectory is
measurable run-over-run.

Every benchmark also appends its reproduced table to
``benchmarks/results/<name>.txt`` (and structured data to
``benchmarks/results/<name>.json``) so the paper-shaped output
survives pytest's capture.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.apps.ftpd import CLIENT_FACTORIES as FTP_CLIENTS, FtpDaemon
from repro.apps.sshd import CLIENT_FACTORIES as SSH_CLIENTS, SshDaemon
from repro.injection import ENCODING_NEW, ENCODING_OLD, run_campaign

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--workers", type=int, default=1,
        help="run each campaign on N worker processes (N>1 uses "
             "repro.injection.fleet; results are identical)")


class CampaignCache:
    """Lazy (daemon, client, encoding) -> CampaignResult cache."""

    def __init__(self, workers=1):
        self.workers = workers
        self._daemons = {}
        self._campaigns = {}
        #: (app, client, encoding) -> CampaignResult.timing record
        self.timings = {}

    def daemon(self, app):
        if app not in self._daemons:
            self._daemons[app] = FtpDaemon() if app == "FTP" \
                else SshDaemon()
        return self._daemons[app]

    def clients(self, app):
        return FTP_CLIENTS if app == "FTP" else SSH_CLIENTS

    def campaign(self, app, client_name, encoding=ENCODING_OLD):
        key = (app, client_name, encoding)
        if key not in self._campaigns:
            factory = self.clients(app)[client_name]
            campaign = run_campaign(
                self.daemon(app), client_name, factory,
                encoding=encoding,
                workers=self.workers if self.workers > 1 else None)
            self._campaigns[key] = campaign
            self.timings["%s %s %s" % key] = campaign.timing
        return self._campaigns[key]

    def all_old(self, app):
        return [self.campaign(app, name)
                for name in self.clients(app)]

    def all_pairs(self, app):
        return [(self.campaign(app, name, ENCODING_OLD),
                 self.campaign(app, name, ENCODING_NEW))
                for name in self.clients(app)]

    def timing_payload(self, keys=None):
        """Structured timing dump for the results JSON: the selected
        campaigns (default all run so far) plus an aggregate."""
        timings = {key: timing for key, timing in self.timings.items()
                   if timing is not None
                   and (keys is None
                        or any(key.startswith(prefix)
                               for prefix in keys))}
        executed = sum(timing["executed"]
                       for timing in timings.values())
        wall_clock = sum(timing["wall_clock"]
                         for timing in timings.values())
        return {
            "workers": self.workers,
            "campaigns": timings,
            "total_wall_clock": wall_clock,
            "total_experiments": executed,
            "experiments_per_sec": (executed / wall_clock
                                    if wall_clock > 0 else 0.0),
        }


@pytest.fixture(scope="session")
def cache(request):
    return CampaignCache(workers=request.config.getoption("--workers"))


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_result(results_dir, request):
    """Write (and echo) a named result blob."""

    def writer(name, text):
        path = results_dir / ("%s.txt" % name)
        path.write_text(text + "\n")
        print("\n" + text)
        return path

    return writer


@pytest.fixture
def record_json(results_dir):
    """Write a named structured result (timings, raw tallies)."""

    def writer(name, payload):
        path = results_dir / ("%s.json" % name)
        path.write_text(json.dumps(payload, indent=1) + "\n")
        return path

    return writer
