"""One prefix pass per cell: the site table of a
:class:`BreakpointSession` against per-site sessions.

A multi-site session runs the clean connection once and captures
every site at its first arrival; each capture must equal the snapshot
a one-site session takes after its own run to that site -- registers,
EFLAGS, ``instret``, memory, kernel and client.  Site switches restore
into one live process, so a campaign that selects sites must see the
state of the site, never the previous experiment's.
"""

from __future__ import annotations

import pytest

from repro.analysis.serialize import result_to_dict
from repro.apps.registry import available_daemons, get_daemon_spec
from repro.injection import (BreakpointSession, enumerate_points,
                             FleetConfig, record_golden, run_both_encodings,
                             run_campaign, run_fleet_campaign,
                             WorkerFleet)
from repro.kernel import Kernel


@pytest.fixture(params=available_daemons())
def client1_cell(request, ftp_daemon, ssh_daemon, pop3_daemon):
    daemon = {"ftpd": ftp_daemon, "sshd": ssh_daemon,
              "pop3d": pop3_daemon}[request.param]
    factory = get_daemon_spec(request.param).client_factory("Client1")
    golden = record_golden(daemon, factory)
    sites = sorted({point.instruction_address for point
                    in enumerate_points(daemon.module,
                                        daemon.auth_ranges())
                    if point.instruction_address in golden.coverage})
    return daemon, factory, golden, sites


def memory_image(snapshot):
    return [b"".join(pages) for pages in snapshot.pages]


def kernel_state(kernel):
    """Everything a restore hands the next experiment, as plain data."""
    assert isinstance(kernel, Kernel)
    client = dict(vars(kernel.channel.client))
    client.pop("channel")
    return (bytes(kernel.stderr_log),
            sorted((fd, sorted(vars(handle).items()))
                   for fd, handle in kernel.open_files.items()),
            kernel.next_fd, kernel.syscall_count,
            list(kernel.write_events),
            list(kernel.channel.transcript),
            bytes(kernel.channel.to_server), client)


def machine_state(snapshot):
    return (snapshot.regs, snapshot.eip, snapshot.eflags,
            snapshot.segments, snapshot.instret, memory_image(snapshot),
            kernel_state(snapshot.kernel))


class TestOnePass:
    def test_every_capture_equals_the_single_site_snapshot(
            self, client1_cell):
        daemon, factory, golden, sites = client1_cell
        table = BreakpointSession(daemon, factory, sites)
        assert table.passes == 1
        assert set(table.captures) == set(sites)
        for address in sites:
            single = BreakpointSession(daemon, factory, address)
            assert single.reached
            assert machine_state(table.captures[address]) \
                == machine_state(single.snapshot), hex(address)

    def test_pass_costs_at_most_one_golden_run(self, client1_cell):
        daemon, factory, golden, sites = client1_cell
        table = BreakpointSession(daemon, factory, sites)
        assert 0 < table.prefix_instructions <= golden.instret
        # the pass ends on the last site it needed, already current
        assert table.reached
        assert table.arrival.instret == table.prefix_instructions
        assert table.restore_stats["restores"] == 0

    def test_snapshots_share_pages_by_identity(self, client1_cell):
        daemon, factory, golden, sites = client1_cell
        table = BreakpointSession(daemon, factory, sites)
        blobs = {id(blob) for capture in table.captures.values()
                 for pages in capture.pages for blob in pages}
        one_image = sum(len(pages) for pages in table.entry.pages)
        # a few freshly copied pages per capture, not one image each
        assert len(blobs) < one_image + 4 * len(sites)
        assert len(blobs) < len(sites) * one_image // 4
        texts = {id(capture.pages[0]) for capture
                 in table.captures.values()}
        assert texts == {id(table.entry.pages[0])}

    def test_ensure_adds_sites_with_one_more_pass(self, ftp_daemon):
        factory = get_daemon_spec("ftpd").client_factory("Client1")
        golden = record_golden(ftp_daemon, factory)
        sites = sorted(golden.coverage)[:6]
        table = BreakpointSession(ftp_daemon, factory, sites[:3])
        assert table.ensure(sites) is not None
        assert table.passes == 2
        assert table.ensure(sites) is None
        assert table.passes == 2
        for address in sites:
            single = BreakpointSession(ftp_daemon, factory, address)
            assert machine_state(table.captures[address]) \
                == machine_state(single.snapshot)

    def test_unreached_site_selects_none(self, ftp_daemon):
        factory = get_daemon_spec("ftpd").client_factory("Client1")
        golden = record_golden(ftp_daemon, factory)
        reached = min(golden.coverage)
        table = BreakpointSession(ftp_daemon, factory, [reached, 0xDEAD])
        assert table.select(0xDEAD) is None
        assert not table.reached
        assert table.arrival.kind == "exit"
        with pytest.raises(RuntimeError):
            table.run_with_register_flip(0, 0)
        assert table.select(reached) is table

    def test_select_restores_before_returning(self, ftp_daemon):
        """The state a caller reads right after ``select`` is the
        site's, even when the previous experiment at that very site
        left the machine dirty."""
        factory = get_daemon_spec("ftpd").client_factory("Client1")
        golden = record_golden(ftp_daemon, factory)
        sites = sorted(golden.coverage)[:4]
        table = BreakpointSession(ftp_daemon, factory, sites)
        for address in sites + sites[::-1]:
            table.select(address)
            snapshot = table.captures[address]
            cpu = table.process.cpu
            assert (tuple(cpu.regs), cpu.eip, cpu.eflags, cpu.instret) \
                == (snapshot.regs, snapshot.eip, snapshot.eflags,
                    snapshot.instret)
            assert [bytes(region.data) for region
                    in table.process.memory.regions] \
                == memory_image(snapshot)
            assert kernel_state(table.process.kernel) \
                == kernel_state(snapshot.kernel)
            table.run_with_register_flip(4, 3)   # dirty it again

    def test_switch_always_rewinds_the_kernel(self, ftp_daemon):
        """An unchanged syscall count proves the live kernel untouched
        only against the snapshot it was last restored to: a kernel
        left at site A whose count happens to equal site B's must
        still be rewound when B is selected."""
        factory = get_daemon_spec("ftpd").client_factory("Client1")
        golden = record_golden(ftp_daemon, factory)
        table = BreakpointSession(ftp_daemon, factory,
                                  sorted(golden.coverage))
        counts = {}
        for address, snapshot in sorted(table.captures.items()):
            counts.setdefault(snapshot.kernel.syscall_count, address)
        (__, first), (count, second) = sorted(counts.items())[:2]
        table.select(first)
        kernel = table.process.kernel
        kernel.stderr_log.extend(b"left over from site A")
        kernel.syscall_count = count      # as if A's suffix made calls
        table.select(second)
        assert kernel_state(table.process.kernel) \
            == kernel_state(table.captures[second].kernel)


def _records(campaign):
    return [result_to_dict(result) for result in campaign.results]


class TestCampaignSessions:
    def test_second_encoding_runs_no_prefix_pass(self, ftp_daemon):
        factory = get_daemon_spec("ftpd").client_factory("Client1")
        old, new = run_both_encodings(ftp_daemon, "Client1", factory,
                                      max_points=120)
        passes = [campaign.metrics["volatile"]["counters"].get(
                      "runtime.sessions", 0) for campaign in (old, new)]
        assert passes == [1, 0]
        alone = run_campaign(ftp_daemon, "Client1", factory,
                             encoding="new", max_points=120)
        assert _records(new) == _records(alone)

    def test_campaign_prefix_is_at_most_one_golden_run(self, ftp_daemon):
        factory = get_daemon_spec("ftpd").client_factory("Client1")
        sessions = {}
        campaign = run_campaign(ftp_daemon, "Client1", factory,
                                sessions=sessions)
        (session,) = sessions.values()
        assert session.passes == 1
        assert session.prefix_instructions <= campaign.golden.instret


class TestPrunedReuseRegression:
    """A pruned campaign seals each site against the session CPU, so a
    reused session must be at the site's state when it is selected --
    not in the previous campaign's post-run state."""

    @pytest.fixture(scope="class")
    def fresh(self, ftp_daemon):
        return _records(run_campaign(ftp_daemon, "Client1",
                                     _client1(), prune=True))

    def test_serial_shared_sessions(self, ftp_daemon, fresh):
        sessions = {}
        for __ in range(2):
            campaign = run_campaign(ftp_daemon, "Client1", _client1(),
                                    prune=True, sessions=sessions)
            assert _records(campaign) == fresh

    def test_warm_fleet_twice(self, ftp_daemon, fresh):
        fleet = WorkerFleet(FleetConfig(workers=1, poll_interval=0.05))
        fleet.start()
        try:
            for __ in range(2):
                campaign = run_fleet_campaign(
                    ftp_daemon, "Client1", _client1(), fleet=fleet,
                    prune=True)
                assert _records(campaign) == fresh
        finally:
            fleet.stop()


def _client1():
    return get_daemon_spec("ftpd").client_factory("Client1")
