"""Kernel launch: grid/block decomposition, parameter binding and waves.

Mirrors the CUDA execution model pieces the paper's analysis relies on: the
image is divided into threadblocks of a user-defined size (paper Section
III-C), blocks are identified by ``blockIdx`` and decompose into warps of
``warp_size`` threads linearized x-major (so a 32x4 block holds 4 warps of
one row each on a warp32 device — the layout warp-grained ISP exploits).
The warp width comes from the launch config, which takes it from the active
:class:`~repro.gpu.device.DeviceSpec` (32 NVIDIA, 64 AMD wavefronts).

Under ISP the region switch (paper Listing 3) depends only on the block, so
every block of one region runs the same specialized clone. :func:`launch`
groups a launch's blocks by that region class and runs each group in waves
of up to :data:`~repro.gpu.simt.WAVE_LANES` lanes, one lane vector per wave
(:class:`~repro.gpu.simt.WaveExecutor`); blocks on different paths would
still diverge correctly as lanes do, so the grouping is only for speed.
Every count stays per warp and per block, and the profiler's
``block_profiles`` keep launch order. A single block is a launch with
``blocks=[((bx, by), None)]``.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from typing import Iterable, Iterator, Optional

from ..ir.function import KernelFunction
from ..ir.verifier import verify
from .memory import GlobalMemory
from .profiler import Profiler
from .simt import SimtAbort, WaveExecutor, decode


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

    The blocks run in waves (:class:`repro.gpu.simt.WaveExecutor`): they are
    grouped by the region class that ``func.metadata["geometry"]`` gives
    them (:meth:`~repro.compiler.regions.RegionGeometry.classify`, the test
    of the kernel's region switch), a kernel without geometry being one
    group, and each group is cut into waves of at most
    :data:`~repro.gpu.simt.WAVE_LANES` lanes. ``abort`` is checked before
    each wave and polled inside it. Kernels whose metadata declares
    ``shared_bytes`` get a shared scratchpad per block (its base injected as
    the ``smem_base`` parameter), and every ``bar.sync`` must be reached by
    all live lanes of a block together — the ``__syncthreads`` contract.

    Parameters
    ----------
    blocks:
        When ``None``, the full grid executes (functional simulation). For
        representative-block profiling, pass an iterable of
        ``((bx, by), block_class)`` pairs and only those blocks run — the
        caller scales their counters by the per-region block counts
        (paper Eq. 8). ``profiler.block_profiles`` receives one profile per
        block in this order (grid order for a full launch).
    """
    if func.decoded is None:
        verify(func)
        func.decoded = decode(func)
    missing = [
        p.name for p in func.params
        if p.name not in params and p.name != "smem_base"  # injected per wave
    ]
    if missing:
        raise ValueError(f"launch of {func.name}: missing parameters {missing}")
    gx, gy = cfg.grid
    if blocks is None:
        blocks = [((ix, iy), None) for iy in range(gy) for ix in range(gx)]
    else:
        blocks = list(blocks)
        for (ix, iy), _ in blocks:
            if not (0 <= ix < gx and 0 <= iy < gy):
                raise ValueError(f"block index {(ix, iy)} outside grid {cfg.grid}")
    executor = WaveExecutor(func.decoded, cfg.block, cfg.grid, cfg.warp_size,
                            memory, profiler, abort,
                            int(func.metadata.get("shared_bytes", 0)))
    profiles: list = [None] * len(blocks)
    for wave in _waves(func, cfg, blocks, executor.blocks_per_wave):
        if abort is not None and abort.is_set():
            raise SimtAbort(f"{func.name}: launch aborted before block "
                            f"{blocks[wave[0]][0]}")
        done = executor.run([blocks[i] for i in wave], params)
        if done is not None:
            for i, profile in zip(wave, done):
                profiles[i] = profile
    if profiler is not None:
        profiler.block_profiles.extend(profiles)


def _waves(func: KernelFunction, cfg: LaunchConfig, blocks: list,
           per_wave: int) -> Iterator[list[int]]:
    """Positions in ``blocks`` of each wave: the blocks of one region class,
    in launch order, ``per_wave`` at a time."""
    geometry = func.metadata.get("geometry")
    groups: dict = {}
    for i, ((ix, iy), _) in enumerate(blocks):
        region = (geometry.classify(ix, iy)
                  if geometry is not None and geometry.grid == cfg.grid else None)
        groups.setdefault(region, []).append(i)
    for group in groups.values():
        for start in range(0, len(group), per_wave):
            yield group[start:start + per_wave]
