"""Debugger-style single-bit injector (the NFTAPE role).

For each experiment the injector loads the server, sets a breakpoint
at the target instruction, lets a scripted client connect, and -- if
the breakpoint fires -- flips one bit of the instruction and resumes.

Execution before the breakpoint is the same clean connection for
every bit, fault model and encoding aimed at a site, and for every
site of one cell (daemon image, client, budget).  A
:class:`BreakpointSession` therefore runs that connection *once*,
captures a :class:`~repro.injection.snapshot.MachineSnapshot`
(memory, CPU, kernel, client) at each site's first arrival, and
replays only the post-activation suffix of each experiment, in one
long-lived :class:`~repro.emu.Process` whose decode caches stay warm
across the whole table.  Outcomes are exactly those of a naive
per-experiment rerun.
"""

from __future__ import annotations

from ..apps.common import CONNECTION_INSTRUCTION_BUDGET
from ..emu import Process
from ..emu.process import ExitStatus
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
    """Snapshots of one cell's clean connection at its injection sites.

    *sites* is one instruction address or an iterable of them.
    Construction runs one clean connection that stops at each site's
    first arrival to capture it (a *pass*); :meth:`ensure` adds sites
    later with one more pass from the entry snapshot.  A site the pass
    never reached has no capture.

    :meth:`select` makes a site current and restores its state into
    the session's single :class:`~repro.emu.Process` before returning.
    ``run_with_*``, ``snapshot``, ``reached``, ``activation_instret``
    and ``arrival`` refer to the current site; ``restore_stats``
    counts over the session's life.  A one-site session is current at
    its site from construction on.

    ``run_fn(process, budget)`` executes the post-activation suffix;
    the default simply runs to completion, the fault-tolerant runner
    substitutes a watchdog-instrumented executor.

    ``full_restore=True`` is the escape hatch that rewrites every
    region instead of only dirtied pages; the test suite cross-checks
    the two paths for byte-identical outcomes.
    """

    def __init__(self, daemon, client_factory, sites,
                 budget=CONNECTION_INSTRUCTION_BUDGET, run_fn=None,
                 full_restore=False):
        self.daemon = daemon
        self.budget = budget
        self.run_fn = run_fn if run_fn is not None else plain_run
        self.full_restore = full_restore
        kernel = daemon.make_kernel(client_factory())
        self.process = Process(daemon.module, kernel)
        #: text addresses poked since the last restore; the only ones
        #: whose cached decodes can be stale once it is undone.
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
        #: site address -> snapshot at its first arrival
        self.captures = {}
        #: every address a pass looked for, reached or not
        self.probed = set()
        #: prefix passes run so far (construction included), and the
        #: guest instructions they retired
        self.passes = 0
        self.prefix_instructions = 0
        #: how a pass that missed a site ended: the arrival status of
        #: every unreached site (the clean connection's own end).
        self._missed = None
        #: the state every pass starts from
        self.entry = MachineSnapshot.capture(self.process, kernel.clone())
        #: the snapshot the live memory and kernel equalled at the
        #: last capture or restore (``None``: unknown, after a harness
        #: fault), and whether nothing has run since.
        self._base = self.entry
        self._pristine = True
        self.breakpoint_address = self.snapshot = self.arrival = None
        self.activation_instret = None
        self.reached = False
        sites = [sites] if isinstance(sites, int) else list(sites)
        current = self.ensure(sites)
        if current is None and len(sites) == 1:
            current = sites[0]
        if current is not None:
            self.select(current)
        else:
            self.arrival = self._missed

    # -- the site table ------------------------------------------------

    def ensure(self, sites):
        """Capture every address of *sites* not probed yet, with one
        pass from the entry snapshot, and leave no site current.
        Returns the site the pass stopped on when it reached all of
        them (the live machine is then exactly at that site), else
        ``None``."""
        wanted = set(sites) - self.probed
        if not wanted:
            return None
        requested = frozenset(wanted)
        self.passes += 1
        process = self.process
        cpu = process.cpu
        if self._base is not self.entry or not self._pristine:
            self._goto(self.entry)
        self.breakpoint_address = self.snapshot = self.arrival = None
        self.activation_instret = None
        self.reached = self._pristine = False
        # The pass runs clean text, so nothing it decodes can go
        # stale: no insert log, and no observer a runner left bound.
        observers = cpu.forensic_ring, cpu.sampler
        cpu.decode_log = cpu.forensic_ring = cpu.sampler = None
        base = self.entry
        try:
            while wanted:
                status = process.run_watched(wanted, self.budget)
                if status.kind != "watched":
                    self._missed = status
                    break
                base = MachineSnapshot.capture(
                    process, process.kernel.clone(), base)
                self.captures[cpu.eip] = base
                wanted.discard(cpu.eip)
        finally:
            self._base = base
            self.prefix_instructions += cpu.instret
            cpu.decode_log = []
            cpu.forensic_ring, cpu.sampler = observers
        self.probed |= requested
        if wanted:
            return None
        self._pristine = True
        return cpu.eip

    def select(self, address):
        """Make *address* the current site (probing it first if no
        pass has) and restore its state into the live process.
        Returns the session, or ``None`` when the clean connection
        never reaches the site."""
        if address not in self.probed:
            self.ensure((address,))
        snapshot = self.captures.get(address)
        self.breakpoint_address = address
        self.reached = snapshot is not None
        if snapshot is None:
            self.snapshot = self.activation_instret = None
            self.arrival = self._missed
            return None
        self.snapshot = snapshot
        if not (self._pristine and self._base is snapshot):
            self._restore_impl()
            self._pristine = True
        self.activation_instret = snapshot.instret
        self.arrival = ExitStatus(kind="breakpoint",
                                  instret=snapshot.instret)
        return self

    def discard_state(self):
        """Forget what the live machine holds (after a harness fault
        escaped mid-experiment): the next restore rewrites every page,
        rewinds the kernel and re-decodes from scratch."""
        self._base = None
        self._pristine = False
        self.process.cpu.invalidate_cache()

    # -- restore -------------------------------------------------------

    def _restore(self):
        """Return the machine to the current site before an experiment.

        When nothing has run since the last capture or restore the
        whole restore is skipped -- the common case for the first
        experiment after :meth:`select` and for NA fast exits.
        """
        if not self.reached:
            raise RuntimeError("no reached breakpoint is current (site %r)"
                               % self.breakpoint_address)
        if self._pristine:
            self._pristine = False
            self.restore_stats["pristine_skips"] += 1
            return self.process.kernel
        return self._restore_impl()

    def _restore_impl(self):
        with host_phase(self.sampler, "restore"):
            return self._goto(self.snapshot)

    def _goto(self, target):
        """Write *target* into the live process: the dirty pages (plus,
        on a switch, the pages whose blobs differ), the CPU, the kernel
        and client, and the decode caches."""
        stats = self.restore_stats
        stats["restores"] += 1
        base = self._base
        stats["pages_written"] += target.restore_memory(
            self.process.memory, full=self.full_restore or base is None,
            base=base)
        cpu = self.process.cpu
        target.restore_cpu(cpu)
        # Text is back to the clean image, from which every pass (and
        # every clean suffix decode) was cached -- only decodes built
        # while poked bytes were in place can be stale, so evict those
        # and keep the rest of the cache warm.
        cpu.evict_suspect_decodes(self._dirty)
        self._dirty.clear()
        self._base = target
        # Every kernel/client mutation is syscall-gated (the client
        # only acts inside server_read/server_write), so when the live
        # kernel was last left at *target*'s own state an unchanged
        # syscall count proves it still is -- the common case for
        # faults that crash before reaching a system call.  Otherwise
        # it is rewound in place, which is why the kernel returned by
        # the previous run_with_* call is only guaranteed stable until
        # the next one.
        kernel = self.process.kernel
        if (target is base
                and kernel.syscall_count == target.kernel.syscall_count):
            stats["kernel_reuses"] += 1
            return kernel
        stats["kernel_rewinds"] += 1
        return kernel.rewind_to(target.kernel)

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
        kernel = self._restore()
        return self._memory_flip(address, bit, kernel)

    def run_with_stack_relative_flip(self, offset, bit):
        """Flip one bit of the byte at ``ESP + offset`` as of the
        breakpoint (the live frame: saved state, locals, argument
        words) and resume."""
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
        kernel = self._restore()
        for offset, value in enumerate(replacement):
            self.process.memory.poke(address + offset, value)
            self.process.cpu.invalidate_cache(address + offset)
            self._dirty.add(address + offset)
        return self._finish(kernel)

    def _finish(self, kernel):
        status = self.run_fn(self.process, self.budget)
        return status, kernel, kernel.channel.client


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
