"""Outside-in span tracer for the benchmark's traced run.

:func:`install` puts class-level wrappers around the public entry
points of each engine layer; every call then records one span (layer
name, start, end, parent span, thread, request id and one integer of
layer-specific work).  Nothing under ``src/`` changes: the wrappers are
installed for the traced pass only and :func:`uninstall` puts the
original attributes back, so untraced passes run the code exactly as
users do.

Spans are kept in memory in flat arrays (a paper-serial pass records
about 60 000) and written out when the run ends.  A
span's self time is its duration minus the union of its direct
children's intervals.

Only the benchmark process is traced.  Shard workers and fleet
workers are forked from it and inherit the wrappers, so each wrapper
passes straight through in any other process; their work is measured
from the parent through result records and events instead.
"""

from __future__ import annotations

import gzip
import json
import os
import threading
import time
from array import array
from contextlib import contextmanager

_clock = time.perf_counter

#: a span's integer payload, per layer: retired guest instructions
#: (emu), instructions to the breakpoint (prefix runs), pages written
#: back (snapshot memory restores).
NO_VALUE = 0


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.names = []
        self._name_ids = {}
        self.requests = [""]
        self._request_ids = {"": 0}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.thread = array("l")
        self.request = array("l")
        self.value = array("q")
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------

    def name_id(self, name):
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def request_id(self, request):
        ident = self._request_ids.get(request)
        if ident is None:
            ident = self._request_ids[request] = len(self.requests)
            self.requests.append(request)
        return ident

    def _state(self):
        state = self._local.__dict__
        if "stack" not in state:
            state["stack"] = []
            state["request"] = 0
        return state

    def open(self, name_id, request=None):
        """Start a span on this thread; returns its index."""
        state = self._state()
        if request is not None:
            state["request"] = self.request_id(request)
        stack = state["stack"]
        with self._lock:
            index = len(self.name)
            self.name.append(name_id)
            self.start.append(_clock())
            self.end.append(0.0)
            self.parent.append(stack[-1] if stack else -1)
            self.thread.append(threading.get_ident() & 0x7FFFFFFF)
            self.request.append(state["request"])
            self.value.append(NO_VALUE)
        stack.append(index)
        return index

    def close(self, index, value=NO_VALUE):
        self.end[index] = _clock()
        if value:
            self.value[index] = value
        self._state()["stack"].pop()

    @contextmanager
    def span(self, name, request=None):
        index = self.open(self.name_id(name), request)
        try:
            yield index
        finally:
            self.close(index)

    def switch(self, name):
        """End the innermost open span on this thread and open *name*
        in its place: consecutive phases of one call."""
        self.close(self._state()["stack"][-1])
        return self.open(self.name_id(name))

    @contextmanager
    def phases(self, first):
        """Open phase span *first*; :meth:`switch` moves to the next
        phase, and leaving the block ends whichever phase is open."""
        self.open(self.name_id(first))
        try:
            yield
        finally:
            self.close(self._state()["stack"][-1])

    def add(self, name, start, end, parent=-1, request="", value=0):
        """Record an already finished span (times from
        ``time.perf_counter``), e.g. one derived from event arrival
        times on a client thread."""
        with self._lock:
            index = len(self.name)
            self.name.append(self.name_id(name))
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent)
            self.thread.append(threading.get_ident() & 0x7FFFFFFF)
            self.request.append(self.request_id(request))
            self.value.append(value)
        return index

    # -- aggregation ---------------------------------------------------

    def summary(self):
        """``{name: {"count", "total_s", "self_s", "value"}}``."""
        children = {}
        parent = self.parent
        for index in range(len(parent)):
            if parent[index] >= 0:
                children.setdefault(parent[index], []).append(index)
        out = {name: {"count": 0, "total_s": 0.0, "self_s": 0.0,
                      "value": 0} for name in self.names}
        start, end, value = self.start, self.end, self.value
        for index, name_id in enumerate(self.name):
            row = out[self.names[name_id]]
            duration = end[index] - start[index]
            row["count"] += 1
            row["total_s"] += duration
            row["value"] += value[index]
            row["self_s"] += duration - _covered(
                start[index], end[index],
                [(start[child], end[child])
                 for child in children.get(index, ())])
        return out

    def save(self, path):
        payload = {"names": self.names, "requests": self.requests,
                   "columns": ["name", "start", "end", "parent",
                               "thread", "request", "value"],
                   "spans": [self.name.tolist(), self.start.tolist(),
                             self.end.tolist(), self.parent.tolist(),
                             self.thread.tolist(),
                             self.request.tolist(),
                             self.value.tolist()]}
        with gzip.open(path, "wt") as handle:
            json.dump(payload, handle)


def _covered(low, high, intervals):
    """Length of [low, high] covered by the union of *intervals*."""
    if not intervals:
        return 0.0
    covered = 0.0
    cursor = low
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, high)
        if end > start:
            covered += end - start
            cursor = end
    return covered


# ----------------------------------------------------------------------
# Class-level wrappers

def _wrap(tracer, name, original, value_of=None, before=None,
          request_of=None):
    """Span around *original*.  ``value_of(args, result, early)`` gives
    the span's integer payload, *early* being ``before(args)`` taken
    ahead of the call; ``request_of(args)`` names the request (point)
    the span serves."""
    name_id = tracer.name_id(name)
    pid = tracer.pid
    getpid = os.getpid

    def wrapper(*args, **kwargs):
        if getpid() != pid:
            return original(*args, **kwargs)
        early = before(args) if before is not None else None
        index = tracer.open(name_id,
                            request_of(args) if request_of else None)
        value = NO_VALUE
        try:
            result = original(*args, **kwargs)
            if value_of is not None:
                value = value_of(args, result, early)
            return result
        finally:
            tracer.close(index, value)

    wrapper.__wrapped__ = original
    return wrapper


def _instret(args):
    return args[0].cpu.instret


def _instret_delta(args, result, early):
    return args[0].cpu.instret - early


def _arrival_instret(args, result, early):
    return args[0].arrival.instret


def _pages(args, result, early):
    return result


def _point_request(args):
    model, __session, point = args[0], args[1], args[2]
    return "%s:%s" % (model.name, model.point_key(point))


def _defining_class(cls, attribute):
    for klass in cls.__mro__:
        if attribute in vars(klass):
            return klass
    raise AttributeError(attribute)


def install(tracer):
    """Wrap every traced entry point; returns the undo list that
    :func:`uninstall` takes."""
    from repro.emu.process import Process
    from repro.injection import parallel, runner
    from repro.injection.campaign import CampaignSpec
    from repro.injection.faultmodels import (available_fault_models,
                                             get_fault_model)
    from repro.injection.injector import BreakpointSession
    from repro.injection.runner import CampaignJournal
    from repro.injection.snapshot import MachineSnapshot
    from repro.kernel.syscalls import Kernel

    targets = [
        (CampaignSpec, "build_daemon", "cc", {}),
        (runner, "record_golden", "injection.golden", {}),
        (parallel, "record_golden", "injection.golden", {}),
        (BreakpointSession, "__init__", "injection.injector.prefix",
         {"value_of": _arrival_instret}),
        (MachineSnapshot, "restore_memory", "injection.snapshot.memory",
         {"value_of": _pages}),
        (MachineSnapshot, "restore_cpu", "injection.snapshot.cpu", {}),
        (MachineSnapshot, "make_kernel", "injection.snapshot.kernel",
         {}),
        (Process, "run", "emu",
         {"value_of": _instret_delta, "before": _instret}),
        (Process, "run_until", "emu",
         {"value_of": _instret_delta, "before": _instret}),
        (Process, "run_watched", "emu",
         {"value_of": _instret_delta, "before": _instret}),
        (Kernel, "syscall", "kernel", {}),
        (runner, "classify_completed_run", "injection.outcomes.classify",
         {}),
        (CampaignJournal, "append_result",
         "injection.runner.journal_append", {}),
    ]
    seen = set()
    for model_name in available_fault_models():
        cls = type(get_fault_model(model_name))
        for attribute, layer, options in (
                ("apply", "injection.injector.experiment",
                 {"request_of": _point_request}),
                ("classify_points", "injection.pruning.plan", {})):
            owner = _defining_class(cls, attribute)
            if (owner, attribute) not in seen:
                seen.add((owner, attribute))
                targets.append((owner, attribute, layer, options))
    undo = []
    for owner, attribute, layer, options in targets:
        original = vars(owner)[attribute]
        setattr(owner, attribute,
                _wrap(tracer, layer, original, **options))
        undo.append((owner, attribute, original))
    return undo


def uninstall(undo):
    for owner, attribute, original in reversed(undo):
        setattr(owner, attribute, original)
