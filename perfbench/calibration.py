"""In-run calibration of host speed.

The benchmark's host is a shared virtual machine whose speed drifts
by tens of percent over minutes as neighbours load it.  A fixed
pure-Python loop, timed every quarter second while a pass runs (on
the workload's own thread where it can call back, else on a thread of
the benchmark process), measures that drift where it hits: the loop
shares the process and the vCPUs with the workload.  Dividing a
measured time by the loop's slowdown against :data:`REFERENCE_S` (the
loop's time on a quiet host) gives the time the same work takes on
the quiet host.  The loop
does not touch the program, so a change to the program moves the
calibrated figures exactly as it moves the raw ones.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

LOOP_ITERATIONS = 120_000
#: the loop's thread CPU time on a quiet host (2 vCPU Xeon VM,
#: CPython 3); only ratios to it are ever used.
REFERENCE_S = 0.0092
PERIOD_S = 0.25
#: a time shorter than this is calibrated by the samples of the window
#: this wide centred on it: enough samples to average out the loop's
#: own jitter.
MIN_WINDOW_S = 6.0


def spin():
    """CPU time of one run of the calibration loop on this thread.
    Thread CPU time leaves out the waits for the interpreter lock
    (which the workload's own threads hold for up to a switch interval
    at a time) but not the slowdown of a contended host, which the
    guest cannot see and bills to whichever thread was running."""
    begin = time.thread_time()
    total = 0
    for value in range(LOOP_ITERATIONS):
        total += value * value % 7
    return time.thread_time() - begin


class Calibrator:
    """Times :func:`spin` on entry, on exit, and every
    :data:`PERIOD_S` in between: on a background thread, or -- with
    ``inline=True`` -- on the workload's own thread whenever it calls
    :meth:`tick` (a campaign's ``progress`` callback).  Inline samples
    see the vCPU the workload runs on; the thread serves workloads
    whose own thread mostly waits."""

    def __init__(self, inline=False):
        self.inline = inline
        #: (``time.perf_counter()`` at the sample's end, loop seconds)
        self.samples = []
        self._stop = threading.Event()
        self._thread = None

    def __enter__(self):
        self._take()
        if not self.inline:
            self._thread = threading.Thread(target=self._sample,
                                            daemon=True)
            self._thread.start()
        return self

    def __exit__(self, *exc):
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
        self._take()

    def _take(self):
        self.samples.append((time.perf_counter(), spin()))

    def _sample(self):
        # Visit every vCPU the process may use in turn (affinity is per
        # thread on Linux): a multi-process workload runs on all of
        # them, and a neighbour may slow one more than another.
        cpus = sorted(os.sched_getaffinity(0))
        turn = 0
        while not self._stop.wait(PERIOD_S):
            os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
            turn += 1
            self._take()

    def tick(self, *progress):
        """Sample if :data:`PERIOD_S` has passed since the last one."""
        if time.perf_counter() - self.samples[-1][0] >= PERIOD_S:
            self._take()

    def slowdown(self, begin=None, end=None):
        """Mean loop time over the reference, from the samples taken
        between *begin* and *end* (``time.perf_counter`` values,
        widened to :data:`MIN_WINDOW_S`) -- the nearest samples around
        that window if none fell inside -- or from all samples."""
        samples = self.samples
        if begin is not None:
            widen = max(0.0, MIN_WINDOW_S - (end - begin)) / 2
            begin, end = begin - widen, end + widen
            inside = [value for at, value in samples if begin <= at <= end]
            if not inside:
                before = [value for at, value in samples if at < begin]
                after = [value for at, value in samples if at > end]
                inside = before[-1:] + after[:1]
            samples = [(None, value) for value in inside]
        return statistics.fmean(value for __, value in samples) \
            / REFERENCE_S
