"""MachineSnapshot semantics: dirty-page restore vs full restore,
pristine-skip, and cross-model session reuse.

The acceptance gate for the snapshot-fork engine: on every registered
daemon x fault-model cell, the dirty-page restore path must produce
experiment-for-experiment identical outcomes to the ``full_restore``
escape hatch (which rewrites every region, the old behaviour).
"""

from __future__ import annotations

import pytest

from repro.apps.registry import available_daemons, get_daemon_spec
from repro.injection import (available_fault_models, BreakpointSession,
                             get_fault_model, MachineSnapshot,
                             record_golden, RunOptions)
from repro.injection.runner import CampaignRunner

#: per-cell experiment cap: enough to span several instructions (and
#: therefore several restores per session) while staying fast.
MAX_POINTS = 12

_daemons = {}


@pytest.fixture(params=available_daemons())
def daemon_cell(request, ftp_daemon, ssh_daemon, pop3_daemon):
    compiled = {"ftpd": ftp_daemon, "sshd": ssh_daemon,
                "pop3d": pop3_daemon}
    name = request.param
    spec = get_daemon_spec(name)
    daemon = compiled.get(name) or _daemons.setdefault(
        name, spec.build())
    return name, daemon, spec


def _covered_points(daemon, spec, model, cap=MAX_POINTS):
    golden = record_golden(daemon, spec.client_factory("Client1"))
    points = model.enumerate_points(daemon.module,
                                    daemon.auth_ranges())
    covered = [point for point in points
               if point.instruction_address in golden.coverage]
    return covered[:cap] if cap else covered


def _signature(campaign):
    return [(result.point.key, result.outcome, result.exit_kind,
             result.crash_latency, result.broke_in)
            for result in campaign.results]


def _run(daemon, spec, model, points, sessions=None, **options):
    runner = CampaignRunner(daemon, "Client1",
                            spec.client_factory("Client1"),
                            RunOptions(**options), fault_model=model,
                            points=points, sessions=sessions)
    return runner.run()


def _image(snapshot):
    return [b"".join(pages) for pages in snapshot.pages]


class TestDirtyVsFullCrossCheck:
    @pytest.mark.parametrize("model_name", available_fault_models())
    def test_cell_outcomes_identical(self, daemon_cell, model_name):
        name, daemon, spec = daemon_cell
        model = get_fault_model(model_name)
        points = _covered_points(daemon, spec, model)
        assert points, "no covered points for %s x %s" % (name,
                                                          model_name)
        dirty = _run(daemon, spec, model, points, full_restore=False)
        full = _run(daemon, spec, model, points, full_restore=True)
        assert _signature(dirty) == _signature(full)


class TestPristineSkip:
    def test_first_experiment_skips_restore(self, ftp_daemon):
        spec = get_daemon_spec("ftpd")
        model = get_fault_model(None)
        points = _covered_points(ftp_daemon, spec, model)
        session = BreakpointSession(ftp_daemon,
                                    spec.client_factory("Client1"),
                                    points[0].instruction_address)
        assert session.restore_stats["pristine_skips"] == 0
        session.run_with_flip(points[0].flip_address, 0)
        assert session.restore_stats["pristine_skips"] == 1
        assert session.restore_stats["restores"] == 0
        session.run_with_flip(points[0].flip_address, 1)
        assert session.restore_stats["restores"] == 1

    def test_outcome_tallies_unchanged_by_skip(self, ftp_daemon):
        """The pristine skip is pure bookkeeping: a campaign's outcome
        tallies must match a run that restores before every
        experiment (the full escape hatch never skips pages, and each
        per-point record -- not just the tally -- must agree)."""
        spec = get_daemon_spec("ftpd")
        model = get_fault_model(None)
        points = _covered_points(ftp_daemon, spec, model)
        skipping = _run(ftp_daemon, spec, model, points)
        full = _run(ftp_daemon, spec, model, points,
                    full_restore=True)
        assert skipping.counts() == full.counts()
        assert _signature(skipping) == _signature(full)

    def test_restores_write_only_dirty_pages(self, ftp_daemon):
        spec = get_daemon_spec("ftpd")
        model = get_fault_model(None)
        points = _covered_points(ftp_daemon, spec, model)
        session = BreakpointSession(ftp_daemon,
                                    spec.client_factory("Client1"),
                                    points[0].instruction_address)
        total_pages = sum(region.page_count() for region
                          in session.process.memory.regions)
        for bit in range(3):
            session.run_with_flip(points[0].flip_address, bit)
        restores = session.restore_stats["restores"]
        assert restores == 2    # first run rode the pristine skip
        pages = session.restore_stats["pages_written"]
        assert 0 < pages < restores * total_pages


class TestSnapshotUnit:
    def test_restore_reverts_exactly_the_dirty_pages(self, ftp_daemon):
        spec = get_daemon_spec("ftpd")
        model = get_fault_model(None)
        points = _covered_points(ftp_daemon, spec, model)
        session = BreakpointSession(ftp_daemon,
                                    spec.client_factory("Client1"),
                                    points[0].instruction_address)
        blobs = _image(session.snapshot)
        session.run_with_flip(points[0].flip_address, 1)
        session._restore()
        for region, blob in zip(session.process.memory.regions, blobs):
            assert bytes(region.data) == blob, region.name

    def test_capture_resets_dirty_baseline(self, ftp_daemon):
        spec = get_daemon_spec("ftpd")
        model = get_fault_model(None)
        points = _covered_points(ftp_daemon, spec, model)
        session = BreakpointSession(ftp_daemon,
                                    spec.client_factory("Client1"),
                                    points[0].instruction_address)
        # the prefix run dirtied pages; capture must have cleared them
        # so the first restore's delta covers only the suffix.
        recaptured = MachineSnapshot.capture(session.process,
                                             session.process.kernel)
        assert session.process.memory.dirty_pages() == {}
        assert _image(recaptured) \
            == [bytes(r.data) for r in session.process.memory.regions]


class TestSessionCacheReuse:
    def test_shared_cache_across_models_preserves_outcomes(
            self, ftp_daemon):
        """One site snapshot serves every fault model aimed at that
        instruction: campaigns run back-to-back over a shared
        ``sessions`` dict must equal campaigns with private sessions,
        and only the first of them may run a prefix pass."""
        spec = get_daemon_spec("ftpd")
        sessions = {}
        passes = []
        for model_name in available_fault_models():
            model = get_fault_model(model_name)
            points = _covered_points(ftp_daemon, spec, model)
            private = _run(ftp_daemon, spec, model, points)
            shared = _run(ftp_daemon, spec, model, points,
                          sessions=sessions)
            assert _signature(private) == _signature(shared), model_name
            passes.append(shared.metrics["volatile"]["counters"].get(
                "runtime.sessions", 0))
        assert passes[0] == 1
        assert len(sessions) == 1
