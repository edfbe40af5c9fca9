"""Unit tests for the flat memory, the TCDM and its bank mapping."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.mem.memory import Memory
from repro.mem.tcdm import Tcdm, TcdmConfig


class TestMemory:
    def test_word_access_little_endian(self):
        mem = Memory(64)
        mem.write_u32(0, 0x11223344)
        assert mem.read_u8(0) == 0x44
        assert mem.read_u8(3) == 0x11
        assert mem.read_u16(0) == 0x3344

    def test_float_round_trip(self):
        mem = Memory(16)
        mem.write_f32(4, 3.25)
        assert mem.read_f32(4) == 3.25

    def test_float_rounds_to_binary32(self):
        mem = Memory(16)
        mem.write_f32(0, 1.0 + 2.0**-30)
        assert mem.read_f32(0) == 1.0

    def test_base_offset_addressing(self):
        mem = Memory(32, base=0x1000)
        mem.write_u32(0x1004, 7)
        assert mem.read_u32(0x1004) == 7
        with pytest.raises(IndexError):
            mem.read_u32(0x0FFC)
        with pytest.raises(IndexError):
            mem.read_u32(0x1000 + 32)

    def test_array_round_trip(self, rng):
        mem = Memory(1024)
        data = rng.standard_normal((4, 8)).astype(np.float32)
        mem.store_array(128, data)
        np.testing.assert_array_equal(mem.load_array(128, (4, 8)), data)

    def test_bytes_and_words(self):
        mem = Memory(64)
        mem.store_words(0, [1, 2, 3])
        assert mem.read_bytes(0, 12) == b"\x01\x00\x00\x00\x02\x00\x00\x00\x03\x00\x00\x00"

    def test_contains(self):
        mem = Memory(16, base=0x100)
        assert mem.contains(0x100, 16)
        assert not mem.contains(0x100, 17)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Memory(0)

    def test_words_view_shares_storage(self):
        mem = Memory(32, base=0x100)
        mem.write_f32(0x108, 2.5)
        words = mem.words()
        assert words.dtype == np.dtype("<f4") and words.shape == (8,)
        assert words[2] == np.float32(2.5)
        words[5] = np.float32(-0.75)
        assert mem.read_f32(0x114) == -0.75

    def test_scalar_accessor_types(self):
        mem = Memory(16)
        mem.write_u8(1, 0xAB)
        value = mem.read_u8(1)
        assert type(value) is int and value == 0xAB
        assert type(mem.read_bytes(0, 4)) is bytes

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_write_bytes_accepts_bytes_like(self, kind):
        mem = Memory(16)
        mem.write_bytes(4, kind(b"\x01\x02\x03"))
        assert mem.read_bytes(3, 5) == b"\x00\x01\x02\x03\x00"


_RSS_PROBE = """
import re
from repro.system import SystemConfig, SystemSimulator

def rss_kib():
    with open("/proc/self/status") as status:
        return int(re.search(r"VmRSS:\\s+(\\d+) kB", status.read()).group(1))

before = rss_kib()
simulators = [SystemSimulator(SystemConfig()) for _ in range(8)]
print(rss_kib() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_untouched_hmc_costs_no_resident_memory():
    """Eight default simulators (a 64 MiB HMC each) stay far below one HMC
    of resident growth: pages are only paid for once touched."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE],
        capture_output=True, text=True, env=env, check=True,
    )
    growth_mib = int(result.stdout.strip()) / 1024
    assert growth_mib < 64, f"8 simulators grew RSS by {growth_mib:.0f} MiB"


class TestTcdm:
    def test_default_geometry_matches_taped_out_cluster(self):
        tcdm = Tcdm()
        assert tcdm.config.size_bytes == 64 * 1024
        assert tcdm.config.num_banks == 32
        assert tcdm.config.words_per_bank == 512
        assert tcdm.config.total_words == 16384

    def test_word_interleaved_bank_mapping(self):
        tcdm = Tcdm()
        base = tcdm.base
        assert tcdm.bank_of(base) == 0
        assert tcdm.bank_of(base + 4) == 1
        assert tcdm.bank_of(base + 4 * 31) == 31
        assert tcdm.bank_of(base + 4 * 32) == 0

    def test_unit_stride_spreads_over_all_banks(self):
        tcdm = Tcdm()
        banks = {tcdm.bank_of(tcdm.base + 4 * i) for i in range(64)}
        assert banks == set(range(32))

    def test_bank_access_counters(self):
        tcdm = Tcdm()
        tcdm.write_f32(tcdm.base, 1.0)
        tcdm.read_f32(tcdm.base + 4)
        counts = tcdm.bank_utilization
        assert counts[0] == 1 and counts[1] == 1

    def test_alloc_layout_and_overflow(self):
        tcdm = Tcdm()
        addresses = tcdm.alloc_layout([100, 200, 4])
        assert addresses[0] == tcdm.base
        assert addresses[1] == tcdm.base + 100
        with pytest.raises(MemoryError):
            tcdm.alloc_layout([65 * 1024])

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            TcdmConfig(size_bytes=1000, num_banks=32)

    def test_array_staging(self, rng):
        tcdm = Tcdm()
        data = rng.standard_normal(16).astype(np.float32)
        tcdm.store_array(tcdm.base + 64, data)
        np.testing.assert_array_equal(tcdm.load_array(tcdm.base + 64, (16,)), data)
