"""Execution-engine performance counters.

The fast-path engine (prepared-op cache, lazy EFLAGS, basic-block
supersteps -- see :mod:`repro.emu.cpu`) trades bookkeeping for
throughput; these counters make that trade observable so a regression
in cache hit rate or flag elision shows up in benchmark output and in
a campaign's ``engine.*`` metrics (``CampaignResult.timing["perf"]``)
instead of only in wall clock.

Counters are observational: they never influence execution, and a
fault mid-superstep may leave the superstep counters off by a few
(attribution is per entered block, not per retired instruction).
"""

from __future__ import annotations

FIELDS = ("prepared_hits", "prepared_misses", "flags_forced",
          "flags_elided", "superstep_entries", "superstep_instructions",
          "syscalls")


class PerfCounters:
    """Counter block attached to every :class:`~repro.emu.cpu.CPU`.

    ``prepared_hits`` / ``prepared_misses``
        prepared-op cache lookups that found / had to build an entry.
    ``flags_forced`` / ``flags_elided``
        lazy EFLAGS records that were materialised because something
        read the flags, vs. discarded unread because a later
        flag-writing instruction overwrote them first.
    ``superstep_entries`` / ``superstep_instructions``
        basic blocks executed without per-instruction loop
        bookkeeping, and the instructions retired inside them.
    ``syscalls``
        ``int $0x80`` dispatches into the kernel model.
    """

    __slots__ = FIELDS

    def __init__(self):
        for name in FIELDS:
            setattr(self, name, 0)

    def reset(self):
        for name in FIELDS:
            setattr(self, name, 0)

    def as_dict(self):
        return {name: getattr(self, name) for name in FIELDS}

    def __repr__(self):
        inner = ", ".join("%s=%d" % (name, getattr(self, name))
                          for name in FIELDS)
        return "PerfCounters(%s)" % inner
