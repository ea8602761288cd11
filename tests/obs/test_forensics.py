"""Crash forensics: ring flattening, snapshots on a real CPU, the
divergence diff, and the human-readable rendering."""

from __future__ import annotations

from repro.obs import first_divergence, RingBuffer
from repro.obs.forensics import (capture_forensics, flatten_ring,
                                 format_flags, format_forensics_record,
                                 make_forensic_ring, RING_CAPACITY)

from ..emu.harness import make_cpu, TEXT_BASE


class TestFlattenRing:
    def test_mixed_entries(self):
        ring = RingBuffer(8)
        ring.append(0x100)                  # step-path entry
        ring.append((0x102, 0x104, 0x107))  # superstep block entry
        ring.append(0x109)
        assert flatten_ring(ring, last_n=10) \
            == [0x100, 0x102, 0x104, 0x107, 0x109]

    def test_last_n_window(self):
        ring = RingBuffer(8)
        ring.append(tuple(range(100, 110)))
        assert flatten_ring(ring, last_n=3) == [107, 108, 109]

    def test_make_forensic_ring_capacity(self):
        ring = make_forensic_ring()
        assert ring.capacity == RING_CAPACITY


class TestFirstDivergence:
    def test_identical_streams(self):
        assert first_divergence([1, 2, 3], [1, 2, 3]) is None

    def test_first_differing_index(self):
        assert first_divergence([1, 2, 3], [1, 9, 3]) == 1

    def test_strict_prefix_diverges_at_shorter_end(self):
        assert first_divergence([1, 2, 3], [1, 2]) == 2
        assert first_divergence([1, 2], [1, 2, 3]) == 2

    def test_empty_streams(self):
        assert first_divergence([], []) is None
        assert first_divergence([], [1]) == 0


class TestCaptureForensics:
    def test_snapshot_on_real_cpu(self):
        cpu, module = make_cpu("""
            movl $5, %eax
            movl $7, %ebx
            addl %ebx, %eax
        """)
        cpu.forensic_ring = make_forensic_ring()
        end = TEXT_BASE + len(module.text)
        while cpu.eip != end:
            cpu.step()                  # step() feeds the ring
        record = capture_forensics(cpu)
        assert record["eip"] == end
        assert record["regs"]["eax"] == 12
        assert record["regs"]["ebx"] == 7
        assert record["instret"] == 3
        assert len(record["ring"]) == 3
        assert record["ring"][0]["disasm"].startswith("mov")
        assert record["ring"][2]["disasm"].startswith("add")
        # raw bytes round-trip through the decode cache
        for entry in record["ring"]:
            assert entry["raw"]
        import json
        json.dumps(record)   # must be JSON-able for the journal

    def test_snapshot_without_ring(self):
        cpu, __ = make_cpu("nop")
        record = capture_forensics(cpu)
        assert "ring" not in record
        assert record["eip"] == TEXT_BASE

    def test_flags_string_matches_eflags(self):
        cpu, module = make_cpu("xorl %eax, %eax")
        end = TEXT_BASE + len(module.text)
        while cpu.eip != end:
            cpu.step()
        record = capture_forensics(cpu)
        assert "ZF" in record["flags"]
        assert record["flags"] == format_flags(record["eflags"])


class TestFormatRecord:
    def test_rendering(self):
        record = {
            "instret": 42, "eip": 0x8048e90,
            "regs": {name: index for index, name in enumerate(
                ("eax", "ecx", "edx", "ebx", "esp", "ebp", "esi",
                 "edi"))},
            "eflags": 0x246, "flags": "IF ZF PF",
            "ring": [{"eip": 0x8048e90, "raw": "f4",
                      "disasm": "hlt"},
                     {"eip": 0x8048e91, "raw": None,
                      "disasm": "(bad)"}],
        }
        text = format_forensics_record(record)
        assert "eip=0x8048e90" in text
        assert "instret=42" in text
        assert "IF ZF PF" in text
        assert "hlt" in text
        assert "??" in text          # missing raw bytes placeholder
        assert "(bad)" in text

    def test_ringless_record(self):
        record = {"instret": 1, "eip": 0x100,
                  "regs": {name: 0 for name in
                           ("eax", "ecx", "edx", "ebx", "esp", "ebp",
                            "esi", "edi")},
                  "eflags": 0, "flags": ""}
        text = format_forensics_record(record)
        assert "last" not in text
