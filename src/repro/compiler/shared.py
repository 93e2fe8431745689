"""Shared-memory tile staging — the other production border strategy.

Hipacc's generated stencil kernels can stage the input tile (block footprint
plus halo) into shared memory: each block cooperatively loads
``(tx + 2*hx) x (ty + 2*hy)`` pixels, synchronizes, and then every tap reads
the on-chip tile. Border handling then runs **once per staged halo pixel**
instead of once per tap — an orthogonal way of removing check cost that
composes with ISP:

* ``SHARED``      — staging with full border checks in every block,
* ``SHARED_ISP``  — a fat kernel whose region dispatch specializes the
  *staging loop*: only border blocks' staging applies checks, the Body
  region's staging is check-free. The compute phase is identical everywhere
  (it reads shared memory, which is always in bounds).

A kernel staged this way is a one-stage fused plan whose tile is the block,
so both shapes are lowered by :func:`repro.compiler.fusion_simt
.generate_fused_simt` — the one staging generator. Because ``bar.sync``
must execute in uniform control flow, staging requires the grid to tile the
image exactly (no early-exit bounds guard) and dispatches at block
granularity only.
"""

from __future__ import annotations

from ..ir.function import KernelFunction
from .frontend import KernelDescription
from .fusion import FusedPlan, fuse_descs
from .fusion_simt import fused_smem_bytes, generate_fused_simt
from .isp import CompileError, Variant


def _staging_plan(desc: KernelDescription) -> FusedPlan:
    """The one-stage plan of ``desc``; it must have one windowed input."""
    windowed = [a for a in desc.accessors if a.boundary.needs_checks]
    if len(windowed) != 1:
        raise CompileError(
            f"{desc.name}: shared staging supports exactly one windowed "
            f"input, found {len(windowed)}"
        )
    return fuse_descs([desc], name=desc.name)


def shared_tile_bytes(desc: KernelDescription, block: tuple[int, int],
                      warp_size: int = 32) -> int:
    """Per-block shared-memory footprint of the staged tile: the staging
    layout's bank-padded bytes, the number the kernel metadata, the
    occupancy charge and the static prover's ``smem_base`` extent carry."""
    return fused_smem_bytes(_staging_plan(desc), block, warp_size)


def generate_shared(
    desc: KernelDescription,
    block: tuple[int, int],
    *,
    variant: Variant = Variant.SHARED,
    warp_size: int = 32,
) -> KernelFunction:
    """Tile-staging kernel of ``variant`` (``SHARED`` or ``SHARED_ISP``)."""
    return generate_fused_simt(_staging_plan(desc), block,
                               warp_size=warp_size, variant=variant)
