"""Parallel campaigns (``run_campaign(workers=N)`` on a private warm
fleet): serial/parallel equivalence, shard journals, resume across
worker counts, and worker fault surfacing."""

from __future__ import annotations

import json

import pytest

from repro.analysis import (build_table1, campaign_from_shard_journals)
from repro.apps.ftpd import client1
from repro.injection import FleetConfig, JournalError, run_campaign
from repro.injection.parallel import (default_daemon_factory,
                                      discover_shard_journals,
                                      shard_journal_path)

SLICE = 96


# ----------------------------------------------------------------------
# Serial / parallel equivalence (the acceptance property)

@pytest.fixture(scope="module")
def serial_campaign(ftp_daemon):
    return run_campaign(ftp_daemon, "Client1", client1,
                        max_points=SLICE)


class TestEquivalence:
    def test_parallel_matches_serial(self, ftp_daemon,
                                     serial_campaign):
        parallel = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=SLICE, workers=3)
        assert parallel.counts() == serial_campaign.counts()
        assert parallel.counts(refined=True) \
            == serial_campaign.counts(refined=True)
        assert [r.point for r in parallel.results] \
            == [r.point for r in serial_campaign.results]
        assert [r.outcome for r in parallel.results] \
            == [r.outcome for r in serial_campaign.results]
        assert [(q.point, q.location) for q in parallel.quarantined] \
            == [(q.point, q.location)
                for q in serial_campaign.quarantined]

    def test_table1_rows_identical(self, ftp_daemon, serial_campaign):
        parallel = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=SLICE, workers=3)
        serial_table = build_table1([serial_campaign])
        parallel_table = build_table1([parallel])
        for serial_col, parallel_col in zip(serial_table,
                                            parallel_table):
            assert vars(serial_col) == vars(parallel_col)

    def test_timing_is_recorded(self, ftp_daemon):
        campaign = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=SLICE, workers=2)
        timing = campaign.timing
        assert timing["workers"] == 2
        assert timing["experiments"] == SLICE
        assert timing["executed"] == SLICE
        assert timing["wall_clock"] > 0
        assert timing["experiments_per_sec"] > 0
        assert len(timing["shards"]) == 2
        assert sum(shard["experiments"]
                   for shard in timing["shards"]) == SLICE

    def test_workers_one_uses_serial_runner(self, ftp_daemon,
                                            serial_campaign):
        campaign = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=SLICE, workers=1)
        assert campaign.timing["workers"] == 1
        assert "shards" not in campaign.timing
        assert campaign.counts(refined=True) \
            == serial_campaign.counts(refined=True)


# ----------------------------------------------------------------------
# Shard journals: write, offline merge, resume

class TestShardJournals:
    def run_parallel(self, ftp_daemon, tmp_path, workers=3, **kwargs):
        return run_campaign(ftp_daemon, "Client1", client1,
                            max_points=SLICE, workers=workers,
                            journal=tmp_path / "run.jsonl", **kwargs)

    def test_one_journal_per_shard(self, ftp_daemon, tmp_path):
        campaign = self.run_parallel(ftp_daemon, tmp_path)
        paths = discover_shard_journals(tmp_path / "run.jsonl")
        assert len(paths) == 3
        keys = set()
        total = 0
        for path in paths:
            with open(path) as handle:
                lines = [json.loads(line) for line in handle]
            assert lines[0]["type"] == "meta"
            assert lines[0]["daemon"] == "FtpDaemon"
            results = [line for line in lines
                       if line["type"] == "result"]
            total += len(results)
            keys.update(line["key"] for line in results)
        assert total == len(keys) == campaign.total_runs == SLICE

    def test_offline_reconstruction(self, ftp_daemon, tmp_path):
        campaign = self.run_parallel(ftp_daemon, tmp_path)
        rebuilt = campaign_from_shard_journals(tmp_path / "run.jsonl")
        assert rebuilt.daemon_name == "FtpDaemon"
        assert rebuilt.counts(refined=True) \
            == campaign.counts(refined=True)
        assert {r.point for r in rebuilt.results} \
            == {r.point for r in campaign.results}

    def test_resume_across_worker_counts(self, ftp_daemon, tmp_path):
        full = self.run_parallel(ftp_daemon, tmp_path, workers=3)
        # kill one shard's tail: drop half its result lines
        victim = shard_journal_path(tmp_path / "run.jsonl", 1)
        with open(victim) as handle:
            lines = handle.readlines()
        with open(victim, "w") as handle:
            handle.writelines(lines[:1 + (len(lines) - 1) // 2])
        resumed = self.run_parallel(ftp_daemon, tmp_path, workers=2,
                                    resume=True)
        assert resumed.counts(refined=True) == full.counts(refined=True)
        assert [r.point for r in resumed.results] \
            == [r.point for r in full.results]
        assert [r.outcome for r in resumed.results] \
            == [r.outcome for r in full.results]

    def test_complete_journals_rerun_nothing(self, ftp_daemon,
                                             tmp_path, monkeypatch):
        full = self.run_parallel(ftp_daemon, tmp_path)
        import repro.injection.fleet as fleet_module

        def forbidden(*args):
            raise AssertionError("all points journaled; no worker "
                                 "should run")

        # a fully-journaled resume spawns no workers at all, so the
        # worker entry point must never be invoked
        monkeypatch.setattr(fleet_module, "_fleet_worker_main",
                            forbidden)
        resumed = self.run_parallel(ftp_daemon, tmp_path, resume=True)
        assert resumed.counts(refined=True) == full.counts(refined=True)
        assert resumed.timing["executed"] == 0

    def test_resume_rejects_mismatched_journal(self, ftp_daemon,
                                               tmp_path):
        self.run_parallel(ftp_daemon, tmp_path)
        with pytest.raises(JournalError):
            run_campaign(ftp_daemon, "Client2", client1,
                         max_points=SLICE, workers=3,
                         journal=tmp_path / "run.jsonl", resume=True)


# ----------------------------------------------------------------------
# Fault surfacing and daemon reconstruction

FAST_SUPERVISOR = FleetConfig(max_restarts=0, backoff_base=0.05,
                              poll_interval=0.05, dead_grace=0.2)


class TestWorkerFaults:
    def test_worker_error_heals_inline(self, ftp_daemon,
                                       serial_campaign):
        # every worker explodes during setup; the supervisor must not
        # fail the campaign.  A unit error is charged to the unit, not
        # the worker: each unit is retried up to ``unit_attempts``
        # times on respawned workers, then runs inline in the parent,
        # and no worker is retired (the restart budget here is zero).
        def exploding_factory():
            raise RuntimeError("synthetic worker construction fault")

        campaign = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=SLICE, workers=2,
                                daemon_factory=exploding_factory,
                                supervisor=FAST_SUPERVISOR)
        assert campaign.counts(refined=True) \
            == serial_campaign.counts(refined=True)
        counters = campaign.metrics["volatile"]["counters"]
        attempts = 2 * FAST_SUPERVISOR.unit_attempts
        assert counters["supervisor.worker_errors"] == attempts
        assert counters["supervisor.respawns"] == attempts
        assert counters["supervisor.failed_shards"] == 0
        assert counters["supervisor.inline_points"] == SLICE

    def test_unhealable_error_raises_in_parent(self, ftp_daemon,
                                               monkeypatch):
        # when even the parent's inline fallback fails, the original
        # worker fault must surface in the raised error
        def exploding_factory():
            raise RuntimeError("synthetic worker construction fault")

        def broken_inline(self, shard, points, stop_check=None):
            raise RuntimeError("inline fallback broken too")

        from repro.injection.fleet import WorkerFleet
        monkeypatch.setattr(WorkerFleet, "_run_unit_inline",
                            broken_inline)
        with pytest.raises(RuntimeError) as excinfo:
            run_campaign(ftp_daemon, "Client1", client1,
                         max_points=SLICE, workers=2,
                         daemon_factory=exploding_factory,
                         supervisor=FAST_SUPERVISOR)
        assert "could not self-heal" in str(excinfo.value)
        assert "synthetic worker construction fault" in str(
            excinfo.value)


class TestDaemonFactory:
    def test_default_factory_rebuilds_equivalent_daemon(self,
                                                        ftp_daemon):
        rebuilt = default_daemon_factory(ftp_daemon)()
        assert type(rebuilt) is type(ftp_daemon)
        assert rebuilt.module.text == ftp_daemon.module.text
        assert rebuilt.auth_ranges() == ftp_daemon.auth_ranges()
        assert rebuilt.database == ftp_daemon.database
