"""Simulated global memory.

A flat, byte-addressed memory backed by a single ``uint32`` word array.
All ISA types are 4 bytes, so every access is word-aligned; the simulator
traps misaligned or out-of-range addresses instead of corrupting neighbours —
the exact failure mode border handling exists to prevent (Section I of the
paper: "Accessing unknown memory locations may result in undefined behavior
and lead to corrupted pixels").
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..faults import core as _faults
from ..ir.types import DataType

#: Size of one coalescing segment in bytes (Kepler/Turing L1/L2 line for
#: global accesses). Used by the profiler to count memory transactions.
SEGMENT_BYTES = 128


class MemoryError_(Exception):
    """Out-of-bounds or misaligned simulated memory access."""


class GlobalMemory:
    """Flat simulated device memory with bump allocation.

    With ``shadow=True`` the memory runs in shadow-OOB mode: every allocation
    is recorded and followed by a :data:`SEGMENT_BYTES` redzone, and every
    lane address of a kernel load/store must fall *inside a live allocation*
    — not merely inside the flat memory.  This turns the silent cross-buffer
    reads a real GPU would perform (the "corrupted pixels" failure mode of
    paper Section I) into hard trap, the runtime complement of the static
    bounds sanitizer in :mod:`repro.sanitize`.
    """

    def __init__(self, size_bytes: int = 1 << 26, *, shadow: bool = False):
        if size_bytes % 4:
            raise ValueError("memory size must be a multiple of 4 bytes")
        self._words = np.zeros(size_bytes // 4, dtype=np.uint32)
        # Address 0 is reserved so that a null pointer always traps.
        self._next = 4
        self.shadow = shadow
        self._alloc_bases: list[int] = []
        self._alloc_ends: list[int] = []
        self._alloc_arrays: Optional[tuple[np.ndarray, np.ndarray]] = None

    @property
    def size_bytes(self) -> int:
        return self._words.size * 4

    # ------------------------------------------------------------- allocation

    def alloc(self, nbytes: int, *, align: int = 128) -> int:
        """Reserve ``nbytes`` and return the base byte address."""
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        base = ((self._next + align - 1) // align) * align
        end = base + nbytes
        # In shadow mode a redzone separates consecutive allocations so that
        # an overflow of one buffer can never alias the next one's base.
        reserve = end + SEGMENT_BYTES if self.shadow else end
        if reserve > self.size_bytes:
            raise MemoryError_(
                f"out of simulated memory: need {reserve} bytes, have {self.size_bytes}"
            )
        self._next = reserve
        if self.shadow:
            self._alloc_bases.append(base)
            self._alloc_ends.append(end)
            self._alloc_arrays = None
        return base

    def alloc_array(self, shape: tuple[int, ...], dtype: DataType) -> int:
        n = int(np.prod(shape))
        return self.alloc(n * dtype.size_bytes)

    # ------------------------------------------------------- host-side access

    def write_array(self, base: int, array: np.ndarray) -> None:
        """Copy a host array into memory at ``base`` (row-major)."""
        flat = np.ascontiguousarray(array).reshape(-1)
        dtype = _resolve_np(flat.dtype)
        words = flat.view(np.uint32)
        self._check_range(base, words.size * 4)
        self._words[base // 4 : base // 4 + words.size] = words
        del dtype

    def read_array(self, base: int, shape: tuple[int, ...], dtype: DataType) -> np.ndarray:
        n = int(np.prod(shape))
        self._check_range(base, n * 4)
        words = self._words[base // 4 : base // 4 + n]
        return words.view(dtype.numpy_dtype).reshape(shape).copy()

    # ------------------------------------------------------ lane-vector access

    def gather(self, addrs: np.ndarray, mask: np.ndarray, dtype: DataType) -> np.ndarray:
        """Vector load: one value per active lane. Inactive lanes read 0."""
        active = self._check_lane_addrs(addrs, mask)
        out = np.zeros(addrs.shape, dtype=dtype.numpy_dtype)
        out[mask] = self._words[active // 4].view(dtype.numpy_dtype)
        return out

    def scatter(
        self, addrs: np.ndarray, values: np.ndarray, mask: np.ndarray, dtype: DataType
    ) -> None:
        """Vector store for active lanes.

        Duplicate addresses among active lanes follow NumPy fancy-assignment
        order (last write wins) — matching CUDA's "one of the writes is
        guaranteed to land" contract closely enough for these kernels, which
        never write the same pixel twice.
        """
        active = self._check_lane_addrs(addrs, mask)
        vals = values.astype(dtype.numpy_dtype, copy=False)
        self._words[active // 4] = vals[mask].view(np.uint32)

    # ------------------------------------------------------------- validation

    def _check_range(self, base: int, nbytes: int) -> None:
        if base % 4:
            raise MemoryError_(f"misaligned base address {base:#x}")
        if base < 4 or base + nbytes > self.size_bytes:
            raise MemoryError_(
                f"access [{base:#x}, {base + nbytes:#x}) outside memory "
                f"of {self.size_bytes} bytes"
            )

    def _check_lane_addrs(self, addrs: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Trap any bad active lane address; return the active addresses."""
        if _faults._current is not None:
            # Fault point: a simulated redzone/OOB trap on an otherwise valid
            # access — exercises the same typed-failure path as a real hit.
            # It fires once per access, for all the lanes of a block.
            if _faults.fire("gpu.memory.redzone", shadow=self.shadow) is not None:
                raise MemoryError_(
                    "injected fault: shadow redzone hit (gpu.memory.redzone)"
                )
        active = addrs[mask].astype(np.int64, copy=False)
        if not active.size:
            return active
        if (active & 3).any():
            bad_align = active % 4 != 0
            raise MemoryError_(
                f"misaligned lane address {int(active[bad_align][0]):#x}"
            )
        if active.min() < 4 or active.max() + 4 > self.size_bytes:
            oob = (active < 4) | (active + 4 > self.size_bytes)
            raise MemoryError_(
                f"lane address {int(active[oob][0]):#x} out of bounds "
                f"(memory is {self.size_bytes} bytes) — an unhandled border access?"
            )
        if self.shadow and self._alloc_bases:
            if self._alloc_arrays is None:
                self._alloc_arrays = (
                    np.asarray(self._alloc_bases, dtype=np.int64),
                    np.asarray(self._alloc_ends, dtype=np.int64),
                )
            bases, ends = self._alloc_arrays
            idx = np.searchsorted(bases, active, side="right") - 1
            stray = (idx < 0) | (active + 4 > ends[np.maximum(idx, 0)])
            if stray.any():
                addr = int(active[stray][0])
                raise MemoryError_(
                    f"shadow OOB: lane address {addr:#x} is outside every live "
                    f"allocation (redzone or cross-buffer access) — "
                    f"an unhandled border access?"
                )
        return active


def transactions_for(addrs: np.ndarray, mask: np.ndarray) -> int:
    """Number of 128-byte coalescing segments touched by the active lanes.

    A perfectly coalesced warp access touches 1 segment; the worst case is one
    per lane. Warp-grained ISP (paper Section V-B) is motivated by keeping
    warps on the efficient path, so the profiler tracks this. This is the
    one-warp reference for :func:`warp_transactions`.
    """
    if not mask.any():
        return 0
    segments = np.unique(addrs[mask].astype(np.int64) // SEGMENT_BYTES)
    return int(segments.size)


def bank_conflicts(addrs: np.ndarray, mask: np.ndarray, warp_size: int) -> int:
    """Replay count of one warp's shared access under the stride model:
    ``warp_size`` banks of one 4-byte word; replays = distinct words beyond
    the first in the most-loaded bank (same-word lanes broadcast). This is
    the one-warp reference for :func:`warp_bank_conflicts`."""
    words = np.unique(addrs[mask].astype(np.int64) >> 2)
    if words.size <= 1:
        return 0
    per_bank = np.bincount(words % warp_size, minlength=warp_size)
    return int(per_bank.max()) - 1


#: Sorts below every segment or word index of an inactive lane.
_NO_LANE = np.iinfo(np.int64).min


def _sorted_per_warp(values: np.ndarray, mask: np.ndarray, warp_size: int) -> np.ndarray:
    """``values`` as one sorted row per warp, inactive lanes first as
    :data:`_NO_LANE`."""
    rows = np.where(mask, values, _NO_LANE).reshape(-1, warp_size)
    rows.sort(axis=1)
    return rows


def warp_transactions(addrs: np.ndarray, mask: np.ndarray, warp_size: int) -> np.ndarray:
    """:func:`transactions_for` of every warp of a block at once.

    ``addrs`` and ``mask`` hold ``n_warps * warp_size`` lanes, warp after
    warp; the result holds one count per warp (0 for a warp with no active
    lane).
    """
    segs = _sorted_per_warp(addrs.astype(np.int64, copy=False) // SEGMENT_BYTES,
                            mask, warp_size)
    # Each change along a sorted row starts a new segment; a row without
    # inactive lanes starts with one too.
    changes = (segs[:, 1:] != segs[:, :-1]).sum(axis=1)
    return changes + (segs[:, 0] != _NO_LANE)


def warp_bank_conflicts(addrs: np.ndarray, mask: np.ndarray, warp_size: int) -> np.ndarray:
    """:func:`bank_conflicts` of every warp of a block at once (lanes laid
    out as for :func:`warp_transactions`)."""
    words = _sorted_per_warp(addrs.astype(np.int64, copy=False) >> 2, mask,
                             warp_size)
    first = np.empty(words.shape, dtype=bool)
    first[:, 0] = True
    np.not_equal(words[:, 1:], words[:, :-1], out=first[:, 1:])
    first &= words != _NO_LANE
    rows, cols = np.nonzero(first)
    per_bank = np.bincount(rows * warp_size + words[rows, cols] % warp_size,
                           minlength=words.size).reshape(words.shape)
    return np.maximum(per_bank.max(axis=1) - 1, 0)


def _resolve_np(np_dtype: np.dtype) -> DataType:
    for dt in (DataType.S32, DataType.U32, DataType.F32):
        if dt.numpy_dtype == np_dtype:
            return dt
    raise TypeError(f"unsupported host array dtype {np_dtype}; use int32/uint32/float32")
