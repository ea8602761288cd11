"""Scheduling layer: work-unit construction and the determinism
property -- any interleaving of unit completions (steal order, worker
deaths mid-unit, salvage + requeue, duplicate completions) merges back
to exactly the serial enumeration order.

The scheduler is process-free pure logic, so the property is driven
with hypothesis against synthetic points -- no emulator involved.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.injection import (build_units, CampaignScheduler,
                             instruction_groups, WorkUnit)


class FakePoint:
    """The two attributes the scheduler relies on."""

    def __init__(self, instruction_address, bit):
        self.instruction_address = instruction_address
        self.bit = bit
        self.key = "%x:%d" % (instruction_address, bit)

    def __repr__(self):
        return "FakePoint(%s)" % self.key


def make_points(sites, bits=4):
    return [FakePoint(0x8048000 + site * 2, bit)
            for site in range(sites) for bit in range(bits)]


def record_of(point):
    return {"key": point.key}


# ----------------------------------------------------------------------
# Unit construction

class TestBuildUnits:
    def test_whole_instructions_stay_together(self):
        points = make_points(sites=7, bits=3)
        units = build_units(points, unit_instructions=2)
        for unit in units:
            addresses = {p.instruction_address for p in unit.points}
            assert len(addresses) <= 2
        # no instruction is split across units
        owners = {}
        for unit in units:
            for point in unit.points:
                owner = owners.setdefault(point.instruction_address,
                                          unit.unit_id)
                assert owner == unit.unit_id

    def test_units_cover_enumeration_in_order(self):
        points = make_points(sites=5)
        units = build_units(points, unit_instructions=2)
        flattened = [p for unit in units for p in unit.points]
        assert [p.key for p in flattened] == [p.key for p in points]
        assert [unit.index for unit in units] \
            == list(range(len(units)))

    def test_instruction_groups(self):
        points = make_points(sites=3, bits=2)
        groups = instruction_groups(points)
        assert len(groups) == 3
        assert all(len(group) == 2 for group in groups)

    def test_min_units_spreads_only_small_campaigns(self):
        # 4 instructions fit one 4-instruction unit; three workers
        # want three units, sizes differing by at most one
        points = make_points(sites=4)
        units = build_units(points, unit_instructions=4, min_units=3)
        sizes = [len({p.instruction_address for p in unit.points})
                 for unit in units]
        assert sizes == [2, 1, 1]
        assert [p.key for unit in units for p in unit.points] \
            == [p.key for p in points]
        # never more units than instructions
        assert len(build_units(make_points(sites=2), min_units=5)) == 2
        # enough units already: the usual cut is kept
        points = make_points(sites=10)
        assert [len(unit) for unit in build_units(
            points, unit_instructions=4, min_units=2)] == [16, 16, 8]

    def test_rejects_bad_unit_size(self):
        with pytest.raises(ValueError):
            build_units(make_points(2), unit_instructions=0)

    def test_unit_len_and_keys(self):
        unit = WorkUnit(unit_id="u00000", index=0,
                        points=tuple(make_points(1, bits=3)))
        assert len(unit) == 3
        assert unit.keys == tuple(p.key for p in unit.points)


# ----------------------------------------------------------------------
# Scheduler lifecycle

class TestSchedulerLifecycle:
    def test_take_record_complete(self):
        points = make_points(sites=4)
        scheduler = CampaignScheduler(points, unit_instructions=2)
        seen = []
        while not scheduler.finished:
            unit = scheduler.take()
            assert unit is not None
            for point in unit.points:
                scheduler.record(point.key, record_of(point))
            scheduler.complete(unit)
            seen.append(unit.unit_id)
        assert len(seen) == 2
        assert scheduler.completed == scheduler.total
        assert scheduler.missing_keys() == []

    def test_preload_skips_resumed_points(self):
        points = make_points(sites=4)
        resumed = {p.key: record_of(p) for p in points[:6]}
        scheduler = CampaignScheduler(points, unit_instructions=8)
        scheduler.preload(resumed, {})
        assert scheduler.resumed == set(resumed)
        unit = scheduler.take()
        assert set(unit.keys).isdisjoint(resumed)
        assert len(unit.points) == len(points) - 6

    def test_preload_after_take_refused(self):
        scheduler = CampaignScheduler(make_points(2))
        scheduler.take()
        with pytest.raises(RuntimeError):
            scheduler.preload({}, {})

    def test_quarantine_overrides_result(self):
        points = make_points(sites=1, bits=2)
        scheduler = CampaignScheduler(points)
        scheduler.record(points[0].key, record_of(points[0]))
        scheduler.record_quarantine(points[0].key, {"q": True})
        assert points[0].key not in scheduler.results
        # and a late duplicate result cannot resurrect it
        scheduler.record(points[0].key, record_of(points[0]))
        assert points[0].key not in scheduler.results
        assert scheduler.merged_quarantined() == [{"q": True}]

    def test_unknown_keys_ignored(self):
        scheduler = CampaignScheduler(make_points(1))
        scheduler.record("dead:0", {"stale": True})
        scheduler.record_quarantine("dead:1", {"stale": True})
        assert scheduler.results == {}
        assert scheduler.quarantined == {}

    def test_requeue_puts_remainder_first(self):
        points = make_points(sites=6, bits=2)
        scheduler = CampaignScheduler(points, unit_instructions=2)
        unit = scheduler.take()
        # half the unit completed before the worker died
        for point in unit.points[:2]:
            scheduler.record(point.key, record_of(point))
        replacement = scheduler.requeue(unit)
        assert replacement is not None
        assert replacement.points == unit.points[2:]
        assert scheduler.attempts(replacement) \
            == scheduler.attempts(unit)
        # the remainder is handed out before untouched units
        assert scheduler.take().unit_id == replacement.unit_id

    def test_requeue_fully_covered_unit_is_dropped(self):
        points = make_points(sites=2, bits=2)
        scheduler = CampaignScheduler(points, unit_instructions=4)
        unit = scheduler.take()
        for point in unit.points:
            scheduler.record(point.key, record_of(point))
        assert scheduler.requeue(unit) is None
        assert scheduler.finished


# ----------------------------------------------------------------------
# The determinism property

@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       sites=st.integers(min_value=1, max_value=12),
       unit_instructions=st.integers(min_value=1, max_value=5))
def test_any_interleaving_merges_to_serial_order(data, sites,
                                                 unit_instructions):
    """Take units in random steal order; kill a random subset of them
    mid-unit (recording only a random prefix, then requeueing the
    remainder); record some completions twice.  The merged result list
    must always equal the serial enumeration exactly."""
    points = make_points(sites=sites)
    serial = [record_of(point) for point in points]
    scheduler = CampaignScheduler(points,
                                  unit_instructions=unit_instructions)
    in_flight = []
    for _ in range(10_000):          # bounded: the property converges
        if scheduler.finished:
            break
        # randomly either take another unit or finish one in flight
        take = data.draw(st.booleans()) or not in_flight
        if take:
            unit = scheduler.take()
            if unit is None:
                if not in_flight:
                    break
            else:
                in_flight.append(unit)
                continue
        unit = in_flight.pop(
            data.draw(st.integers(min_value=0,
                                  max_value=len(in_flight) - 1)))
        dies = data.draw(st.booleans())
        covered = (data.draw(st.integers(min_value=0,
                                         max_value=len(unit.points)))
                   if dies else len(unit.points))
        for point in unit.points[:covered]:
            scheduler.record(point.key, record_of(point))
            if data.draw(st.booleans()):       # duplicate completion
                scheduler.record(point.key, record_of(point))
        if dies:
            scheduler.requeue(unit)
        else:
            scheduler.complete(unit)
    assert scheduler.finished
    assert scheduler.merged_results() == serial
    assert scheduler.merged_quarantined() == []


@settings(max_examples=30, deadline=None)
@given(resumed=st.sets(st.integers(min_value=0, max_value=19)),
       seed=st.randoms())
def test_resume_preload_preserves_merge_order(resumed, seed):
    """Points preloaded from a journal and points executed live merge
    into one enumeration-ordered list."""
    points = make_points(sites=5)          # 20 points
    serial = [record_of(point) for point in points]
    scheduler = CampaignScheduler(points, unit_instructions=2)
    scheduler.preload({points[i].key: record_of(points[i])
                       for i in resumed}, {})
    units = []
    while True:
        unit = scheduler.take()
        if unit is None:
            break
        units.append(unit)
    seed.shuffle(units)
    for unit in units:
        for point in unit.points:
            scheduler.record(point.key, record_of(point))
        scheduler.complete(unit)
    assert scheduler.finished
    assert scheduler.merged_results() == serial
