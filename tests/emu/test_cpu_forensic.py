"""Observed run loop: execution equivalence with the plain fast path,
crash-consistent ring contents, and observers that see every retired
instruction on every way of driving the CPU."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.emu import CpuFault, Process
from repro.kernel import Kernel
from repro.obs.forensics import flatten_ring, make_forensic_ring
from repro.obs.ring import RingBuffer
from repro.obs.sampler import Sampler
from repro.x86 import assemble

from .harness import make_cpu, TEXT_BASE

LOOP = """
    movl $0, %eax
    movl $0, %ecx
loop:
    addl $3, %eax
    xorl %ecx, %eax
    incl %ecx
    cmpl $200, %ecx
    jne loop
"""

CRASH_MID_BLOCK = """
    movl $1, %eax
    movl $2, %ebx
    movl $0, %ecx
    movl (%ecx), %edx
    movl $3, %esi
"""


def _run(source, ring=False, budget=10_000):
    cpu, module = make_cpu(source)
    if ring:
        cpu.forensic_ring = make_forensic_ring()
    status = cpu.run(budget)
    return cpu, module, status


class TestEquivalence:
    def test_same_architectural_state_with_and_without_ring(self):
        plain, __, plain_status = _run(LOOP)
        traced, ___, traced_status = _run(LOOP, ring=True)
        # ring runs must be observationally identical to plain runs
        assert traced_status[0] == plain_status[0]
        assert str(traced_status[1]) == str(plain_status[1])
        assert traced.instret == plain.instret
        assert list(traced.regs) == list(plain.regs)
        assert traced.eip == plain.eip
        assert traced.eflags == plain.eflags

    def test_ring_follows_execution(self):
        cpu, module, status = _run(LOOP, ring=True, budget=50)
        assert status == ("limit", None)
        eips = flatten_ring(cpu.forensic_ring, last_n=1_000)
        assert eips, "ring stayed empty"
        # every recorded EIP lies inside the text section
        end = TEXT_BASE + len(module.text)
        assert all(TEXT_BASE <= eip < end for eip in eips)


class TestCrashConsistency:
    def test_mid_block_fault_truncates_to_faulting_op(self):
        cpu, module, status = _run(CRASH_MID_BLOCK, ring=True)
        assert status[0] == "crash"
        eips = flatten_ring(cpu.forensic_ring, last_n=16)
        # the ring ends at the instruction the crash report points at,
        # with none of the block's unexecuted successors present
        assert eips[-1] == cpu.eip
        plain, __, plain_status = _run(CRASH_MID_BLOCK)
        assert plain_status[0] == "crash"
        assert cpu.eip == plain.eip
        assert cpu.instret == plain.instret
        # the retired prefix of the block is all there
        assert eips == [module.text_base + offset
                        for offset in (0, 5, 10, 15)][:len(eips)]


# -- every way of running feeds both observers ------------------------

PROGRAMS = {
    # supersteps through a loop body, then an exit syscall (step path)
    "loop-exit": """
_start:
    movl $0, %eax
    movl $0, %ecx
loop:
    addl $3, %eax
    xorl %ecx, %eax
    incl %ecx
    cmpl $40, %ecx
    jne loop
    movl $1, %eax
    movl $0, %ebx
    int $0x80
""",
    # the budget runs out inside the loop
    "loop-limit": """
_start:
    movl $0, %ecx
loop:
    incl %ecx
    addl %ecx, %eax
    jmp loop
""",
    # the fourth op of a superstep faults
    "mid-block-fault": """
_start:
    movl $1, %eax
    movl $2, %ebx
    movl $0, %ecx
    movl (%ecx), %edx
    movl $3, %esi
""",
    # string ops never join a block: the fault is on the step path
    "step-fault": """
_start:
    movl $0, %esi
    movl $0, %edi
    movsb
    movl $3, %eax
""",
}


def _drive(process, how, budget):
    """Run *process* one way; returns the final status kind.  The
    stop addresses lie in the data segment, which no program fetches
    from, so every way runs to the same end."""
    data = process.module.data_base
    if how == "run":
        return process.run(budget).kind
    if how == "run_until":
        return process.run_until(data, budget).kind
    if how == "run_watched":
        return process.run_watched({data, data + 4}, budget).kind
    cpu = process.cpu
    try:
        while not cpu.halted and cpu.instret < budget:
            cpu.step()
    except CpuFault:
        return "crash"
    return "exit" if cpu.halted else "limit"


def _attach(process):
    ring = process.cpu.forensic_ring = RingBuffer()   # keep it all
    sampler = process.cpu.sampler = Sampler(period=1)
    return ring, sampler


def _process(name):
    return Process(assemble(".text\n.global _start\n" + PROGRAMS[name]),
                   Kernel())


def _observed(name, how, budget=300):
    process = _process(name)
    ring, sampler = _attach(process)
    kind = _drive(process, how, budget)
    return process, kind, flatten_ring(ring, last_n=len(ring) * 128), \
        sampler


WAYS = ("run", "run_until", "run_watched", "step")


@pytest.mark.parametrize("how", WAYS)
@pytest.mark.parametrize("name, expected", [
    ("loop-exit", "exit"), ("loop-limit", "limit"),
    ("mid-block-fault", "crash"), ("step-fault", "crash")])
def test_observers_see_every_retired_instruction(name, expected, how):
    process, kind, eips, sampler = _observed(name, how)
    cpu = process.cpu
    assert kind == expected
    assert sampler.total_samples == cpu.instret
    retired = Counter(eips)
    if kind == "crash":
        # the ring ends at the faulting instruction, which did not
        # retire and so was not sampled
        assert eips[-1] == cpu.eip
        retired[cpu.eip] -= 1
    assert +retired == Counter(sampler.samples)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_way_of_running_observes_the_same_stream(name):
    streams = {tuple(_observed(name, how)[2]) for how in WAYS}
    assert len(streams) == 1


def test_observers_attached_at_a_breakpoint_count_from_there():
    process = _process("loop-exit")
    target = process.module.address_of("loop") + 3
    assert process.run_until(target).kind == "breakpoint"
    start = process.cpu.instret
    __, sampler = _attach(process)
    assert process.run().kind == "exit"
    assert sampler.total_samples == process.cpu.instret - start


def test_observed_run_stops_in_front_of_a_stop_address():
    target = _process("loop-exit").module.address_of("loop") + 3
    plain = _process("loop-exit")
    assert plain.run_until(target).kind == "breakpoint"
    process = _process("loop-exit")
    ring, sampler = _attach(process)
    assert process.run_until(target).kind == "breakpoint"
    assert process.cpu.instret == plain.cpu.instret
    assert process.cpu.eip == target
    assert sampler.total_samples == process.cpu.instret
    assert target not in flatten_ring(ring)
