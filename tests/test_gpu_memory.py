"""Unit tests for simulated global memory."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.memory import (
    SEGMENT_BYTES,
    GlobalMemory,
    MemoryError_,
    bank_conflicts,
    transactions_for,
    warp_bank_conflicts,
    warp_transactions,
)
from repro.ir.types import DataType


def full_mask():
    return np.ones(32, dtype=bool)


class TestAllocation:
    def test_alloc_alignment(self):
        mem = GlobalMemory(1 << 16)
        a = mem.alloc(100)
        b = mem.alloc(4)
        assert a % 128 == 0 and b % 128 == 0
        assert b >= a + 100

    def test_null_address_reserved(self):
        mem = GlobalMemory(1 << 16)
        assert mem.alloc(4) >= 4

    def test_out_of_memory(self):
        mem = GlobalMemory(1 << 12)
        with pytest.raises(MemoryError_, match="out of simulated memory"):
            mem.alloc(1 << 13)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            GlobalMemory(10)  # not multiple of 4
        mem = GlobalMemory(1 << 12)
        with pytest.raises(ValueError):
            mem.alloc(0)


class TestHostAccess:
    def test_roundtrip_f32(self, rng):
        mem = GlobalMemory(1 << 16)
        data = rng.random((8, 8)).astype(np.float32)
        base = mem.alloc(data.size * 4)
        mem.write_array(base, data)
        back = mem.read_array(base, (8, 8), DataType.F32)
        assert np.array_equal(back, data)

    def test_roundtrip_s32(self):
        mem = GlobalMemory(1 << 16)
        data = np.arange(-8, 8, dtype=np.int32)
        base = mem.alloc(data.size * 4)
        mem.write_array(base, data)
        assert np.array_equal(mem.read_array(base, (16,), DataType.S32), data)

    def test_rejects_f64(self):
        mem = GlobalMemory(1 << 16)
        base = mem.alloc(64)
        with pytest.raises(TypeError):
            mem.write_array(base, np.zeros(4, dtype=np.float64))


class TestLaneAccess:
    def test_gather_scatter_roundtrip(self, rng):
        mem = GlobalMemory(1 << 16)
        base = mem.alloc(32 * 4)
        vals = rng.random(32).astype(np.float32)
        addrs = base + 4 * np.arange(32, dtype=np.int64)
        mem.scatter(addrs, vals, full_mask(), DataType.F32)
        got = mem.gather(addrs, full_mask(), DataType.F32)
        assert np.array_equal(got, vals)

    def test_masked_lanes_untouched(self):
        mem = GlobalMemory(1 << 16)
        base = mem.alloc(32 * 4)
        addrs = base + 4 * np.arange(32, dtype=np.int64)
        mask = np.zeros(32, dtype=bool)
        mask[::2] = True
        mem.scatter(addrs, np.full(32, 7.0, np.float32), mask, DataType.F32)
        got = mem.gather(addrs, full_mask(), DataType.F32)
        assert np.all(got[::2] == 7.0)
        assert np.all(got[1::2] == 0.0)

    def test_oob_active_lane_traps(self):
        mem = GlobalMemory(1 << 12)
        addrs = np.full(32, mem.size_bytes, dtype=np.int64)
        with pytest.raises(MemoryError_, match="out of bounds"):
            mem.gather(addrs, full_mask(), DataType.F32)

    def test_oob_inactive_lane_ignored(self):
        mem = GlobalMemory(1 << 12)
        base = mem.alloc(32 * 4)
        addrs = base + 4 * np.arange(32, dtype=np.int64)
        addrs[5] = 10**9  # wild address on an inactive lane
        mask = full_mask()
        mask[5] = False
        mem.gather(addrs, mask, DataType.F32)  # no raise

    def test_misaligned_traps(self):
        mem = GlobalMemory(1 << 12)
        base = mem.alloc(256)
        addrs = np.full(32, base + 2, dtype=np.int64)
        with pytest.raises(MemoryError_, match="misaligned"):
            mem.gather(addrs, full_mask(), DataType.F32)

    def test_negative_address_traps(self):
        mem = GlobalMemory(1 << 12)
        addrs = np.full(32, -4, dtype=np.int64)
        with pytest.raises(MemoryError_):
            mem.gather(addrs, full_mask(), DataType.F32)


class TestCoalescing:
    def test_fully_coalesced_is_one_transaction(self):
        addrs = 1024 + 4 * np.arange(32, dtype=np.int64)
        assert transactions_for(addrs, full_mask()) == 1

    def test_strided_access_many_transactions(self):
        addrs = 1024 + SEGMENT_BYTES * np.arange(32, dtype=np.int64)
        assert transactions_for(addrs, full_mask()) == 32

    def test_broadcast_is_one(self):
        addrs = np.full(32, 2048, dtype=np.int64)
        assert transactions_for(addrs, full_mask()) == 1

    def test_inactive_mask_zero(self):
        addrs = np.zeros(32, dtype=np.int64)
        assert transactions_for(addrs, np.zeros(32, dtype=bool)) == 0

    @given(st.integers(min_value=0, max_value=10**6))
    def test_transactions_bounded(self, base):
        addrs = base + 4 * np.arange(32, dtype=np.int64)
        t = transactions_for(addrs, full_mask())
        assert 1 <= t <= 2  # 128 contiguous bytes touch at most 2 segments


class TestPerWarpCounts:
    """The block executor counts all warps of a block in one call; every
    warp's count must equal the one-warp model applied to that warp alone."""

    @settings(max_examples=150, deadline=None)
    @given(
        warp_size=st.sampled_from([32, 64]),
        n_warps=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        base=st.integers(-1024, 1 << 20).map(lambda a: 4 * a),
        spread=st.sampled_from([1, 3, 32, 64, 1024, 1 << 16]),
        density=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
        idle=st.lists(st.booleans(), min_size=4, max_size=4),
    )
    def test_matches_one_warp_models(self, warp_size, n_warps, seed, base,
                                     spread, density, idle):
        rng = np.random.default_rng(seed)
        n = n_warps * warp_size
        # A small spread puts many lanes on one word (broadcasts, replays).
        addrs = base + 4 * rng.integers(0, spread, n).astype(np.int64)
        mask = rng.random(n) < density
        for w in range(n_warps):
            if idle[w]:  # a warp with no active lane
                mask[w * warp_size:(w + 1) * warp_size] = False
        tx = warp_transactions(addrs, mask, warp_size)
        conflicts = warp_bank_conflicts(addrs, mask, warp_size)
        assert tx.shape == conflicts.shape == (n_warps,)
        for w in range(n_warps):
            lanes = slice(w * warp_size, (w + 1) * warp_size)
            assert tx[w] == transactions_for(addrs[lanes], mask[lanes])
            assert conflicts[w] == bank_conflicts(addrs[lanes], mask[lanes],
                                                  warp_size)

    def test_bank_model_examples(self):
        words = np.arange(32, dtype=np.int64)
        everyone = np.ones(32, dtype=bool)
        assert bank_conflicts(4 * words, everyone, 32) == 0  # one per bank
        assert bank_conflicts(4 * 32 * words, everyone, 32) == 31  # one bank
        assert bank_conflicts(np.full(32, 64), everyone, 32) == 0  # broadcast
        assert bank_conflicts(4 * 2 * words, everyone, 32) == 1  # stride 2
