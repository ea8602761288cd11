"""Site independence, property-checked across daemons x fault models.

One :class:`BreakpointSession` holds every site of a cell and restores
them into a single live process.  Whatever sequence of (site, fault
model, point) experiments runs through it, each experiment must equal
the same experiment in a fresh single-site session: any state leaking
from one site or model to the next -- memory pages, registers, lazy
flags, kernel or client objects, stale decodes -- breaks that.
"""

from __future__ import annotations

import pytest
from hypothesis import given, HealthCheck, settings, strategies as st

from repro.apps.registry import available_daemons, get_daemon_spec
from repro.injection import (BreakpointSession, get_fault_model,
                             record_golden)
from repro.injection.campaign import ENCODING_OLD

MODELS = ("branch-bit", "register-bit", "memory-bit")
_SITES = 4             # sites per cell
_POINTS_PER_SITE = 2   # points per (site, model)
_context = {}


@pytest.fixture(scope="module")
def cells(ftp_daemon, ssh_daemon, pop3_daemon):
    """Lazy per-daemon cell: a few covered sites, their points under
    every model, one shared multi-site session, and a memo of each
    experiment's outcome in a fresh single-site session."""
    compiled = {"ftpd": ftp_daemon, "sshd": ssh_daemon,
                "pop3d": pop3_daemon}

    def cell(daemon_name):
        if daemon_name not in _context:
            daemon = compiled[daemon_name]
            factory = get_daemon_spec(daemon_name).client_factory(
                "Client1")
            golden = record_golden(daemon, factory)
            branch = get_fault_model("branch-bit")
            covered = sorted({
                point.instruction_address for point
                in branch.enumerate_points(daemon.module,
                                           daemon.auth_ranges())
                if point.instruction_address in golden.coverage})
            sites = covered[::max(1, len(covered) // _SITES)][:_SITES]
            points = []
            for name in MODELS:
                model = get_fault_model(name)
                for site in sites:
                    at_site = [point for point in model.enumerate_points(
                                   daemon.module, daemon.auth_ranges())
                               if point.instruction_address == site]
                    points.extend((model, point) for point
                                  in at_site[:_POINTS_PER_SITE])
            shared = BreakpointSession(daemon, factory, sites)
            _context[daemon_name] = (daemon, factory, points, shared, {})
        return _context[daemon_name]

    return cell


def _outcome(session, model, point, module):
    status, kernel, client = model.apply(session, point, ENCODING_OLD,
                                         module)
    return (status.kind, status.instret,
            kernel.channel.normalized_transcript(), client.broke_in())


def _fresh_outcome(cell, model, point):
    daemon, factory, __, __, memo = cell
    key = (model.name, point.key)
    if key not in memo:
        fresh = BreakpointSession(daemon, factory,
                                  point.instruction_address)
        assert fresh.reached
        memo[key] = _outcome(fresh, model, point, daemon.module)
    return memo[key]


@settings(max_examples=24, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data(),
       daemon_name=st.sampled_from(available_daemons()))
def test_site_independence(cells, data, daemon_name):
    cell = cells(daemon_name)
    daemon, __, points, shared, __ = cell
    order = data.draw(st.lists(st.sampled_from(points), min_size=1,
                               max_size=6), label="experiments")
    for model, point in order:
        assert shared.select(point.instruction_address) is shared
        assert _outcome(shared, model, point, daemon.module) \
            == _fresh_outcome(cell, model, point), \
            (model.name, point.key)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(daemon_name=st.sampled_from(available_daemons()),
       model_name=st.sampled_from(MODELS))
def test_snapshot_kernel_never_mutates(cells, daemon_name, model_name):
    """The pristine kernels inside the snapshots are the source of
    every restore: running experiments at any site must never change
    a transcript or client state of any capture."""
    daemon, __, points, shared, __ = cells(daemon_name)

    def kernels():
        return [(list(snapshot.kernel.channel.transcript),
                 bytes(snapshot.kernel.channel.to_server),
                 snapshot.kernel.syscall_count,
                 dict(snapshot.kernel.channel.client.__dict__))
                for snapshot in shared.captures.values()]

    before = kernels()
    for model, point in points:
        if model.name == model_name:
            shared.select(point.instruction_address)
            model.apply(shared, point, ENCODING_OLD, daemon.module)
            assert shared.process.kernel is not shared.snapshot.kernel
    assert kernels() == before
