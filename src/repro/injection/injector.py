"""Debugger-style single-bit injector (the NFTAPE role).

For each experiment the injector loads the server, sets a breakpoint
at the target instruction, lets a scripted client connect, and -- if
the breakpoint fires -- flips one bit of the instruction and resumes.

Because execution before the breakpoint is identical for every bit of
a given instruction, the injector snapshots the whole machine (memory,
CPU, kernel, client) at the breakpoint once and replays only the
post-activation suffix for each of the instruction's bits.  Outcomes
are exactly those of a naive per-bit rerun; campaigns just finish
about an order of magnitude sooner.

The snapshot is a :class:`~repro.injection.snapshot.MachineSnapshot`:
restore writes back only pages the previous suffix dirtied and clones
the kernel through the explicit ``clone()`` protocol instead of
``copy.deepcopy``.  The prefix run depends only on the daemon image
and the scripted client -- not on the fault model or instruction
encoding -- so one session (and its snapshot) is reusable across every
model and bit aimed at that instruction; :class:`SessionCache` keys
sessions accordingly.
"""

from __future__ import annotations

from ..apps.common import CONNECTION_INSTRUCTION_BUDGET
from ..emu import Process
from ..kernel import ServerHang
from ..obs.sampler import host_phase
from .snapshot import MachineSnapshot


def plain_run(process, budget):
    """Run *process* to completion under *budget*, mapping a kernel
    :class:`ServerHang` onto a ``hang`` exit status."""
    try:
        status = process.run(budget)
    except ServerHang as hang:
        status = process._status("limit", None)
        status.kind = "hang"
        status.fault_detail = str(hang)
    return status


class BreakpointSession:
    """Server state captured at the first arrival at one instruction.

    ``run_fn(process, budget)`` executes the post-activation suffix;
    the default simply runs to completion, the fault-tolerant runner
    substitutes a watchdog-instrumented executor.

    ``full_restore=True`` is the escape hatch that rewrites every
    region instead of only dirtied pages; the test suite cross-checks
    the two paths for byte-identical outcomes.
    """

    def __init__(self, daemon, client_factory, breakpoint_address,
                 budget=CONNECTION_INSTRUCTION_BUDGET, run_fn=None,
                 full_restore=False):
        self.daemon = daemon
        self.budget = budget
        self.run_fn = run_fn if run_fn is not None else plain_run
        self.breakpoint_address = breakpoint_address
        self.full_restore = full_restore
        client = client_factory()
        kernel = daemon.make_kernel(client)
        self.process = Process(daemon.module, kernel)
        #: text addresses poked since the snapshot; the only ones whose
        #: cached decodes can be stale once the snapshot is restored.
        self._dirty = set()
        #: perf-counter values already credited to a runner; lets a
        #: session be reused across runners without double counting.
        self._perf_taken = {}
        #: restore-path accounting, exposed for tests and benchmarks.
        self.restore_stats = {"restores": 0, "pristine_skips": 0,
                              "pages_written": 0, "kernel_reuses": 0,
                              "kernel_rewinds": 0}
        #: optional :class:`repro.obs.sampler.Sampler` attributing the
        #: restore path's host wall clock (rebound per runner, like
        #: ``run_fn``); ``None`` keeps restores instrumentation-free.
        self.sampler = None
        self.arrival = self.process.run_until(breakpoint_address, budget)
        self.reached = self.arrival.kind == "breakpoint"
        if self.reached:
            self.activation_instret = self.process.cpu.instret
            self.snapshot = MachineSnapshot.capture(self.process, kernel)
            # The pristine kernel lives inside the snapshot; the live
            # process runs against a clone so no experiment can corrupt
            # the state every later restore is built from.
            self._install_kernel(self.snapshot.make_kernel())
            self._pristine = True
            # From here on, log cache inserts so each restore can
            # evict exactly the decodes built from modified text.
            self.process.cpu.decode_log = []

    def _install_kernel(self, kernel):
        self.process.cpu.kernel = kernel
        self.process.kernel = kernel
        return kernel

    def _restore(self):
        """Reset memory/CPU to the breakpoint and clone kernel+client.

        When the machine has not run since the snapshot was captured
        (or since the last restore) nothing is dirty and the already
        installed kernel clone has never been touched, so the whole
        restore is skipped -- the common case for NA fast exits.
        """
        with host_phase(self.sampler, "restore"):
            return self._restore_impl()

    def _restore_impl(self):
        if self._pristine:
            self._pristine = False
            self.restore_stats["pristine_skips"] += 1
            return self.process.kernel
        snapshot = self.snapshot
        self.restore_stats["restores"] += 1
        self.restore_stats["pages_written"] += snapshot.restore_memory(
            self.process.memory, full=self.full_restore)
        cpu = self.process.cpu
        snapshot.restore_cpu(cpu)
        # Text is back to the snapshot image, from which the prefix run
        # (and every clean suffix decode) was cached -- only decodes
        # built while bytes poked this experiment were in place can be
        # stale, so evict those and keep the rest of the cache warm.
        cpu.evict_suspect_decodes(self._dirty)
        self._dirty.clear()
        # Every kernel/client mutation is syscall-gated (the client
        # only acts inside server_read/server_write), so an unchanged
        # syscall count proves the installed clone is still pristine
        # and can serve the next experiment as-is -- the common case
        # for faults that crash before reaching a system call.
        # Otherwise the installed clone is rewound in place to the
        # pristine snapshot state, which is why the kernel returned by
        # the previous run_with_* call is only guaranteed stable until
        # the next one.
        installed = self.process.kernel
        if installed.syscall_count == snapshot.kernel.syscall_count:
            self.restore_stats["kernel_reuses"] += 1
            return installed
        self.restore_stats["kernel_rewinds"] += 1
        return installed.rewind_to(snapshot.kernel)

    def fork(self):
        """Cheap sibling session at the same breakpoint.

        The sibling shares the immutable :class:`MachineSnapshot`
        (region blobs + pristine kernel) but gets its own memory, CPU
        and kernel clone, so experiments in one session can never leak
        into another.  Used by the fork-independence property tests and
        as the substrate for warm-worker reuse.
        """
        if not self.reached:
            raise RuntimeError("cannot fork: breakpoint at 0x%x was "
                               "never reached" % self.breakpoint_address)
        sibling = BreakpointSession.__new__(BreakpointSession)
        sibling.daemon = self.daemon
        sibling.budget = self.budget
        sibling.run_fn = self.run_fn
        sibling.breakpoint_address = self.breakpoint_address
        sibling.full_restore = self.full_restore
        sibling.snapshot = self.snapshot
        sibling.arrival = self.arrival
        sibling.reached = True
        sibling.activation_instret = self.activation_instret
        sibling._dirty = set()
        sibling._perf_taken = {}
        sibling.sampler = None
        sibling.restore_stats = {"restores": 0, "pristine_skips": 0,
                                 "pages_written": 0, "kernel_reuses": 0,
                                 "kernel_rewinds": 0}
        kernel = self.snapshot.make_kernel()
        sibling.process = Process(self.daemon.module, kernel,
                                  memory=self.snapshot.materialize_memory())
        self.snapshot.restore_cpu(sibling.process.cpu)
        sibling.process.cpu.decode_log = []
        sibling._pristine = True
        return sibling

    def take_perf_delta(self):
        """Perf counters accumulated since the last call -- the share
        of this session's work not yet credited to any runner."""
        counters = self.process.cpu.perf.as_dict()
        taken = self._perf_taken
        self._perf_taken = counters
        return {name: value - taken.get(name, 0)
                for name, value in counters.items()}

    def run_with_flip(self, flip_address, bit):
        """Flip one bit at the breakpoint and run to completion.

        Returns ``(status, kernel, client)`` where ``status.kind`` is
        ``exit``/``crash``/``limit``/``hang``.
        """
        if not self.reached:
            raise RuntimeError("breakpoint at 0x%x was never reached"
                               % self.breakpoint_address)
        kernel = self._restore()
        self.process.flip_bit(flip_address, bit)
        self._dirty.add(flip_address)
        return self._finish(kernel)

    def run_with_register_flip(self, register, bit):
        """Flip one bit of a general-purpose register at the breakpoint
        and resume -- a *data error* experiment (the paper's Example 3
        family), in contrast to the text-segment control errors of the
        main campaigns.

        ``register`` is the hardware register index (EAX=0 ... EDI=7).
        """
        if not self.reached:
            raise RuntimeError("breakpoint at 0x%x was never reached"
                               % self.breakpoint_address)
        kernel = self._restore()
        cpu = self.process.cpu
        cpu.regs[register] ^= (1 << bit)
        return self._finish(kernel)

    def run_with_memory_flip(self, address, bit):
        """Flip one bit of one byte at an absolute address at the
        breakpoint and resume -- a *data error* against memory (the
        stack/data counterpart of :meth:`run_with_register_flip`).

        Text addresses are handled too (the decode cache is kept
        coherent), though the text-fault models use
        :meth:`run_with_flip`/:meth:`run_with_bytes` directly.
        """
        if not self.reached:
            raise RuntimeError("breakpoint at 0x%x was never reached"
                               % self.breakpoint_address)
        kernel = self._restore()
        return self._memory_flip(address, bit, kernel)

    def run_with_stack_relative_flip(self, offset, bit):
        """Flip one bit of the byte at ``ESP + offset`` as of the
        breakpoint (the live frame: saved state, locals, argument
        words) and resume."""
        if not self.reached:
            raise RuntimeError("breakpoint at 0x%x was never reached"
                               % self.breakpoint_address)
        kernel = self._restore()
        address = (self.process.cpu.regs[4] + offset) & 0xFFFFFFFF
        return self._memory_flip(address, bit, kernel)

    def _memory_flip(self, address, bit, kernel):
        memory = self.process.memory
        memory.poke(address, memory.peek(address) ^ (1 << bit))
        cpu = self.process.cpu
        low, high = getattr(cpu, "cacheable", (0, 0))
        if low <= address < high:
            cpu.invalidate_cache(address)
            self._dirty.add(address)
        return self._finish(kernel)

    def run_with_bytes(self, address, replacement):
        """Overwrite instruction bytes at the breakpoint and resume.

        Used by the new-encoding evaluation (Section 6.2): the
        replacement is the map->flip->map-back image of the original
        instruction, which can differ from it in more than one bit of
        the *old* encoding.
        """
        if not self.reached:
            raise RuntimeError("breakpoint at 0x%x was never reached"
                               % self.breakpoint_address)
        kernel = self._restore()
        for offset, value in enumerate(replacement):
            self.process.memory.poke(address + offset, value)
            self.process.cpu.invalidate_cache(address + offset)
            self._dirty.add(address + offset)
        return self._finish(kernel)

    def _finish(self, kernel):
        status = self.run_fn(self.process, self.budget)
        return status, kernel, kernel.channel.client


class SessionCache:
    """Reusable :class:`BreakpointSession` store.

    Keyed by (daemon image, client script, budget, site): the prefix
    run and the snapshot do not depend on the fault model or the
    instruction encoding, so one cached session serves every model and
    bit targeting that instruction.  Unreachable sites are remembered
    so each is probed at most once.

    ``capacity`` bounds resident sessions (LRU eviction); campaigns
    visit points in address order, so the serial runner uses capacity 1
    while cross-model sweeps share an unbounded cache.  Not safe for
    concurrent use from several threads; parallel campaigns give each
    worker process its own cache.
    """

    def __init__(self, capacity=None):
        self.capacity = capacity
        self._sessions = {}  # key -> session, insertion order = LRU
        self._unreachable = {}  # key -> arrival ExitStatus
        self.hits = 0
        self.misses = 0
        #: sessions dropped by the LRU bound.  A long-lived warm
        #: worker serving many daemon x model x encoding cells watches
        #: this to prove the cache is bounded (an evicted site simply
        #: re-captures on next use, at the usual prefix-run cost).
        self.evictions = 0

    @staticmethod
    def key(daemon, client_name, budget, address):
        return (id(daemon), client_name, budget, address)

    def lookup(self, key):
        session = self._sessions.get(key)
        if session is not None:
            self.hits += 1
            # refresh LRU position
            del self._sessions[key]
            self._sessions[key] = session
        return session

    def unreachable_arrival(self, key):
        return self._unreachable.get(key)

    def mark_unreachable(self, key, arrival):
        self._unreachable[key] = arrival

    def store(self, key, session):
        self.misses += 1
        self._sessions[key] = session
        if self.capacity is not None:
            while len(self._sessions) > self.capacity:
                oldest = next(iter(self._sessions))
                del self._sessions[oldest]
                self.evictions += 1

    def discard(self, key):
        """Drop a session whose machine state may be corrupted (e.g.
        after a harness fault)."""
        self._sessions.pop(key, None)

    def __len__(self):
        return len(self._sessions)

    def stats(self):
        """Operational counters, in metrics-registry key style."""
        return {"sessions": len(self._sessions), "hits": self.hits,
                "misses": self.misses, "evictions": self.evictions}


def single_injection(daemon, client_factory, instruction_address,
                     flip_address, bit,
                     budget=CONNECTION_INSTRUCTION_BUDGET):
    """Run one complete injection experiment from scratch.

    Convenience wrapper used by examples and tests; campaigns use
    :class:`BreakpointSession` directly to amortise the prefix.
    """
    session = BreakpointSession(daemon, client_factory,
                                instruction_address, budget)
    if not session.reached:
        return None
    return session.run_with_flip(flip_address, bit)


def run_clean_connection(daemon, client_factory,
                         budget=CONNECTION_INSTRUCTION_BUDGET):
    """Run an uninjected connection (used by tests and examples)."""
    client = client_factory()
    kernel = daemon.make_kernel(client)
    process = Process(daemon.module, kernel)
    return plain_run(process, budget), kernel, client
