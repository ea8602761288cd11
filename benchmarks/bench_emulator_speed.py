"""Infrastructure benchmark: raw emulator throughput.

Not a paper experiment -- this tracks the cost model behind every
campaign: instructions retired per second executing real compiled
code (the crypt13 hash loop and a golden FTP connection).
"""

from __future__ import annotations

import statistics
import sys
import time

from repro.cc import compile_program
from repro.emu import Process
from repro.injection import run_clean_connection
from repro.apps.ftpd import client1
from repro.kernel import Kernel

HASH_LOOP = r"""
int main() {
    int i;
    char *digest;
    i = 0;
    while (i < 50) {
        digest = crypt13("benchmark-password", "bm");
        i = i + 1;
    }
    return digest[2] & 0x7F;
}
"""


def interleaved_overhead(run_once, pairs=24):
    """Per-run seconds of ``run_once(False)`` (plain) and
    ``run_once(True)`` (observed), best of each, and the observed
    run's relative overhead.

    One run lasts only 75-130 ms, so a best-of-N of each variant
    still moves by +-10 % with the load on a shared host.  Instead
    every observed run is timed against a plain run right next to it
    (the order flips from pair to pair) and the overhead is the
    median over pairs of observed/plain minus one: host drift slower
    than a pair cancels out of each ratio, and the median sheds the
    pairs a scheduler hiccup hit."""
    run_once(False)                      # warm the prepared-op cache
    plain, observed, ratios = [], [], []
    for pair in range(pairs):
        sample = {}
        for flag in ((False, True) if pair % 2 == 0 else (True, False)):
            sample[flag] = run_once(flag)[0]
        plain.append(sample[False])
        observed.append(sample[True])
        ratios.append(sample[True] / sample[False])
    return min(plain), min(observed), statistics.median(ratios) - 1.0


def python_opcodes(call):
    """Python bytecodes executed by ``call()``: a deterministic cost
    measure, blind to host speed."""
    executed = 0

    def tracer(frame, event, arg):
        nonlocal executed
        if event == "call":
            frame.f_trace_opcodes = True
        elif event == "opcode":
            executed += 1
        return tracer

    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(None)
    return executed


def opcode_overhead(run_once):
    """Relative opcode cost of an observed run over a plain one."""
    plain = python_opcodes(lambda: run_once(False))
    observed = python_opcodes(lambda: run_once(True))
    return plain, observed, (observed - plain) / plain


def test_emulator_throughput(benchmark, record_result, record_json):
    program = compile_program(HASH_LOOP)
    last_perf = {}

    def run_once():
        process = Process(program.module, Kernel())
        status = process.run(5_000_000)
        assert status.kind == "exit"
        last_perf.clear()
        last_perf.update(process.cpu.perf.as_dict())
        return status.instret

    instret = benchmark(run_once)
    stats = benchmark.stats.stats
    rate = instret / stats.mean if stats.mean else 0.0
    record_result("emulator_speed",
                  "emulated instructions per run: %d\n"
                  "mean wall time: %.4f s\n"
                  "throughput: %.0f instructions/second\n"
                  "engine: %d prepared-op hits / %d misses, "
                  "%d flags forced / %d elided, %d supersteps "
                  "(%d instructions), %d syscalls"
                  % (instret, stats.mean, rate,
                     last_perf.get("prepared_hits", 0),
                     last_perf.get("prepared_misses", 0),
                     last_perf.get("flags_forced", 0),
                     last_perf.get("flags_elided", 0),
                     last_perf.get("superstep_entries", 0),
                     last_perf.get("superstep_instructions", 0),
                     last_perf.get("syscalls", 0)))
    record_json("emulator_speed", {
        "instructions_per_run": instret,
        "mean_seconds": stats.mean,
        "min_seconds": stats.min,
        "instructions_per_sec": rate,
        "perf": dict(last_perf),
    })
    assert instret > 50_000
    assert rate > 50_000, "emulator slower than 50k instr/s"


def test_connection_throughput(benchmark, cache):
    daemon = cache.daemon("FTP")

    def run_once():
        status, __, ___ = run_clean_connection(daemon, client1)
        assert status.kind == "exit"
        return status.instret

    instret = benchmark(run_once)
    assert instret > 5_000


def test_forensic_ring_overhead(record_result, record_json):
    """The forensics acceptance gate: the block-granularity ring costs
    under 5% on the fast path when attached, and exactly nothing when
    not (``run()`` branches to a separate loop, so the plain path is
    untouched -- asserted structurally by the campaign equivalence
    tests; measured here for the attached case).  Wall clock is the
    median ratio over alternated plain/ringed sample pairs
    (:func:`interleaved_overhead`); the Python opcode count over the
    same loop is the deterministic companion."""
    from repro.obs.forensics import make_forensic_ring

    program = compile_program(HASH_LOOP)

    def run_once(with_ring):
        process = Process(program.module, Kernel())
        if with_ring:
            process.cpu.forensic_ring = make_forensic_ring()
        started = time.perf_counter()
        status = process.run(5_000_000)
        elapsed = time.perf_counter() - started
        assert status.kind == "exit"
        return elapsed, status.instret

    # paired samples on both variants so host drift and scheduler
    # noise cannot fake a regression (or hide one)
    plain, ringed, overhead = interleaved_overhead(run_once)
    plain_ops, ring_ops, op_overhead = opcode_overhead(run_once)
    record_result("forensic_ring_overhead",
                  "plain: %.4f s  ring: %.4f s  overhead: %.1f%%\n"
                  "opcodes: plain %d  ring %d  overhead: %.2f%%"
                  % (plain, ringed, 100 * overhead, plain_ops, ring_ops,
                     100 * op_overhead))
    record_json("forensic_ring_overhead", {
        "plain_seconds": plain,
        "ring_seconds": ringed,
        "overhead_fraction": overhead,
        "plain_opcodes": plain_ops,
        "ring_opcodes": ring_ops,
        "opcode_overhead_fraction": op_overhead,
    })
    assert op_overhead < 0.05, (
        "forensic ring executes %.2f%% more Python opcodes (budget: 5%%)"
        % (100 * op_overhead))
    assert overhead < 0.05, (
        "forensic ring costs %.1f%% (budget: 5%%)" % (100 * overhead))


def test_sampler_overhead(record_result, record_json):
    """The telemetry acceptance gate: the sampling profiler costs
    under 5% on the fast path when attached, and exactly nothing when
    not.  Like the forensic ring, ``run()`` branches to the separate
    ``_run_observed`` loop, so the plain superstep loop never consults
    the sampler -- asserted structurally below, then measured for the
    attached case: wall clock as the median ratio over alternated
    plain/sampled sample pairs, and deterministically as Python
    opcodes."""
    import inspect

    from repro.emu.cpu import CPU
    from repro.obs.sampler import Sampler

    # detached cost is zero by construction: past the dispatch at the
    # top of run(), the plain loop body never touches the sampler
    plain_loop = inspect.getsource(CPU.run).split(
        "while not self.halted", 1)[1]
    assert "sampler" not in plain_loop, (
        "plain CPU.run loop references the sampler -- detached cost "
        "is no longer zero")
    assert CPU._run_observed is not CPU.run

    program = compile_program(HASH_LOOP)

    def run_once(with_sampler):
        process = Process(program.module, Kernel())
        if with_sampler:
            process.cpu.sampler = Sampler()
        started = time.perf_counter()
        status = process.run(5_000_000)
        elapsed = time.perf_counter() - started
        assert status.kind == "exit"
        return elapsed, status.instret

    plain, sampled, overhead = interleaved_overhead(run_once)
    instret = run_once(True)[1]
    rate = instret / sampled if sampled else 0.0
    plain_ops, sampled_ops, op_overhead = opcode_overhead(run_once)
    record_result("sampler_overhead",
                  "plain: %.4f s  sampled: %.4f s  overhead: %.1f%%\n"
                  "sampled throughput: %.0f instructions/second\n"
                  "opcodes: plain %d  sampled %d  overhead: %.2f%%"
                  % (plain, sampled, 100 * overhead, rate, plain_ops,
                     sampled_ops, 100 * op_overhead))
    record_json("sampler_overhead", {
        "plain_seconds": plain,
        "sampled_seconds": sampled,
        "overhead_fraction": overhead,
        "sampled_instructions_per_sec": rate,
        "plain_opcodes": plain_ops,
        "sampled_opcodes": sampled_ops,
        "opcode_overhead_fraction": op_overhead,
    })
    assert op_overhead < 0.05, (
        "sampler executes %.2f%% more Python opcodes (budget: 5%%)"
        % (100 * op_overhead))
    assert overhead < 0.05, (
        "sampler costs %.1f%% (budget: 5%%)" % (100 * overhead))
