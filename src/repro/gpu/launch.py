"""Kernel launch: grid/block decomposition and parameter binding.

Mirrors the CUDA execution model pieces the paper's analysis relies on: the
image is divided into threadblocks of a user-defined size (paper Section
III-C), blocks are identified by ``blockIdx`` and decompose into warps of
``warp_size`` threads linearized x-major (so a 32x4 block holds 4 warps of
one row each on a warp32 device — the layout warp-grained ISP exploits).
The warp width comes from the launch config, which takes it from the active
:class:`~repro.gpu.device.DeviceSpec` (32 NVIDIA, 64 AMD wavefronts).
"""

from __future__ import annotations

import dataclasses
import math
import threading
from typing import Iterable, Optional

from ..ir.function import KernelFunction
from ..ir.verifier import verify
from .memory import GlobalMemory
from .profiler import Profiler
from .simt import BlockExecutor, SimtAbort, decode


@dataclasses.dataclass(frozen=True)
class LaunchConfig:
    """Grid geometry for one kernel launch."""

    grid: tuple[int, int]  # blocks in (x, y)
    block: tuple[int, int]  # threads per block in (x, y)
    #: SIMT width the block decomposes into — the device's warp/wavefront size
    warp_size: int = 32

    def __post_init__(self):
        gx, gy = self.grid
        bx, by = self.block
        if min(gx, gy, bx, by) <= 0:
            raise ValueError("grid/block dimensions must be positive")
        if self.warp_size <= 0 or self.warp_size & (self.warp_size - 1):
            raise ValueError(
                f"warp_size must be a positive power of two, got {self.warp_size}"
            )

    @property
    def threads_per_block(self) -> int:
        return self.block[0] * self.block[1]

    @property
    def warps_per_block(self) -> int:
        return math.ceil(self.threads_per_block / self.warp_size)

    @property
    def total_blocks(self) -> int:
        return self.grid[0] * self.grid[1]

    @staticmethod
    def for_image(
        width: int, height: int, block: tuple[int, int], warp_size: int = 32
    ) -> "LaunchConfig":
        """Grid that covers a width x height iteration space."""
        bx, by = block
        return LaunchConfig(
            grid=(math.ceil(width / bx), math.ceil(height / by)), block=block,
            warp_size=warp_size,
        )


def execute_block(
    func: KernelFunction,
    cfg: LaunchConfig,
    block_idx: tuple[int, int],
    memory: GlobalMemory,
    params: dict,
    profiler: Optional[Profiler] = None,
    block_class: Optional[str] = None,
    abort: Optional[threading.Event] = None,
) -> None:
    """Run one threadblock to completion, all its warps in lock step.

    Kernels whose metadata declares ``shared_bytes`` get a per-block shared
    scratchpad (its base injected as the ``smem_base`` parameter); every
    ``bar.sync`` must then be reached by all live lanes together — the
    ``__syncthreads`` contract. Unlike :func:`launch`, this does not verify
    ``func``.
    """
    table = func.decoded if func.decoded is not None else decode(func)
    executor = BlockExecutor(table, cfg.block, cfg.grid, cfg.warp_size,
                             memory, profiler, abort)
    _run_block(executor, func, block_idx, params, block_class)


def _run_block(executor, func, block_idx, params, block_class) -> None:
    profiler = executor.profiler
    if profiler is not None:
        profiler.begin_block(block_idx, block_class)
    shared_bytes = int(func.metadata.get("shared_bytes", 0))
    shared = None
    if shared_bytes > 0:
        size = 1 << max(10, (shared_bytes + 256).bit_length())
        shared = GlobalMemory(size)
        params = dict(params)
        params["smem_base"] = shared.alloc(shared_bytes)
    executor.run(block_idx, params, shared)
    if profiler is not None:
        profiler.end_block()


def launch(
    func: KernelFunction,
    cfg: LaunchConfig,
    memory: GlobalMemory,
    params: dict,
    profiler: Optional[Profiler] = None,
    blocks: Optional[Iterable[tuple[tuple[int, int], Optional[str]]]] = None,
    abort: Optional[threading.Event] = None,
) -> None:
    """Execute a kernel launch.

    The first launch of ``func`` verifies it and decodes it once
    (:func:`repro.gpu.simt.decode`); the table is kept on the function, so
    later launches of the same function object skip both.

    Parameters
    ----------
    blocks:
        When ``None``, the full grid executes (functional simulation). For
        representative-block profiling, pass an iterable of
        ``((bx, by), block_class)`` pairs and only those blocks run — the
        caller scales their counters by the per-region block counts
        (paper Eq. 8).
    """
    if func.decoded is None:
        verify(func)
        func.decoded = decode(func)
    missing = [
        p.name for p in func.params
        if p.name not in params and p.name != "smem_base"  # injected per block
    ]
    if missing:
        raise ValueError(f"launch of {func.name}: missing parameters {missing}")
    executor = BlockExecutor(func.decoded, cfg.block, cfg.grid, cfg.warp_size,
                             memory, profiler, abort)
    if blocks is None:
        gx, gy = cfg.grid
        blocks = (((ix, iy), None) for iy in range(gy) for ix in range(gx))
    for block_idx, block_class in blocks:
        ix, iy = block_idx
        if not (0 <= ix < cfg.grid[0] and 0 <= iy < cfg.grid[1]):
            raise ValueError(f"block index {block_idx} outside grid {cfg.grid}")
        if abort is not None and abort.is_set():
            raise SimtAbort(f"{func.name}: launch aborted before block {block_idx}")
        _run_block(executor, func, block_idx, params, block_class)
