"""Machine snapshots: immutable page tables, mutable delta.

A campaign replays the post-activation suffix of one connection
thousands of times from each injection site.  The state at a site
splits into an *immutable* part -- the memory image and the
kernel/client state as of the breakpoint, captured once -- and a
*mutable* part: whatever the suffix run touched.  The suffix of an
authentication exchange dirties a handful of stack and data pages out
of a couple-hundred-KiB address space, so restoring by writing back
only pages dirtied since the capture (tracked by
:mod:`repro.emu.memory` at :data:`PAGE_SIZE` granularity) is an
order of magnitude cheaper than rewriting every region, and the
kernel ``clone()`` protocol replaces a per-experiment
``copy.deepcopy``.

Memory is one tuple of page blobs per region.  Snapshots captured
along one clean run share page blobs *by identity*: a capture copies
only the pages dirtied since the capture before it, so a table of 32
sites holds a few pages per site, not 32 full images, and a site
switch writes back just the pages whose blobs differ.

A snapshot is never mutated after capture: pages are ``bytes``, CPU
state is tuples, and the kernel inside is the pristine kernel every
restore rewinds the live one to, so one snapshot serves every fault
model and encoding aimed at its site.
"""

from __future__ import annotations

from ..emu.memory import PAGE_SHIFT, PAGE_SIZE


class MachineSnapshot:
    """Complete machine state at one injection site.

    Immutable after :meth:`capture`; restores copy *out of* the
    snapshot into a live process.
    """

    __slots__ = ("pages", "regs", "eip", "eflags", "segments", "instret",
                 "kernel")

    @classmethod
    def capture(cls, process, kernel, base=None):
        """Freeze *process* + *kernel* and reset dirty tracking so the
        restore delta is measured from this point.

        With *base* -- a snapshot the live memory equals except for
        its dirty pages -- only those pages are copied; every other
        page blob is *base*'s own object.
        """
        snapshot = cls()
        memory = process.memory
        snapshot.pages = [
            _copy_pages(region, None if base is None else base.pages[index])
            for index, region in enumerate(memory.regions)]
        cpu = process.cpu
        snapshot.regs = tuple(cpu.regs)
        snapshot.eip = cpu.eip
        snapshot.eflags = cpu.eflags  # materializes any lazy flags
        snapshot.segments = tuple(cpu.segments)
        snapshot.instret = cpu.instret
        snapshot.kernel = kernel
        memory.clear_dirty()
        return snapshot

    # -- restore -------------------------------------------------------

    def restore_memory(self, memory, full=False, base=None):
        """Rewrite the pages dirtied since the last capture or restore
        and returns how many pages were written back.

        *base* is the snapshot the live memory equalled at that point
        (default: this one).  On a switch from another snapshot of the
        same table, every page whose blob differs between the two is
        written too.  *full* rewrites everything.
        """
        base = self if base is None else base
        pages = 0
        for region, mine, theirs in zip(memory.regions, self.pages,
                                        base.pages):
            dirty = region.dirty
            if full:
                write = range(len(mine))
            elif mine is theirs:
                if not dirty:
                    continue
                write = dirty
            else:
                write = dirty.union(
                    page for page, blob in enumerate(mine)
                    if blob is not theirs[page])
            data = region.data
            for page in write:
                low = page << PAGE_SHIFT
                data[low:low + PAGE_SIZE] = mine[page]
            pages += len(write)
            dirty.clear()
        return pages

    def restore_cpu(self, cpu):
        cpu.regs = list(self.regs)
        cpu.eip = self.eip
        cpu.eflags = self.eflags
        cpu.segments = list(self.segments)
        cpu.instret = self.instret
        cpu.halted = False
        if hasattr(cpu, "exit_code"):
            del cpu.exit_code

    def make_kernel(self):
        """A fresh kernel+client at the snapshot state; the pristine
        kernel inside the snapshot is never handed out directly."""
        return self.kernel.clone()


def _copy_pages(region, shared):
    """*shared* (a page tuple) with the region's dirty pages replaced
    by copies of their live contents -- *shared* itself when nothing is
    dirty, every page copied when *shared* is ``None``."""
    if shared is None:
        dirty = range(region.page_count())
        shared = (None,) * len(dirty)
    else:
        dirty = region.dirty
    if not dirty:
        return shared
    pages = list(shared)
    data = region.data
    for page in dirty:
        low = page << PAGE_SHIFT
        pages[page] = bytes(data[low:low + PAGE_SIZE])
    return tuple(pages)
