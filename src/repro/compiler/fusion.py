"""Fusion pass: lower a multi-kernel pipeline onto overlapped tiles.

Staged execution (``run_pipeline_vectorized``) materializes every
intermediate image in full before the next stage reads it — exactly the
memory-traffic regime the paper's ISP partitioning avoids *within* a kernel.
This pass extends the idea *across* kernels, following the overlapped-tiling
formulation of Jangda & Guha (arXiv:1909.07190): the final output is tiled,
and for each tile every producer stage computes just the region its
consumers read — the tile plus a halo that accumulates back-to-front
through the pipeline. The host executor tiles each step's region like a
staged ``isp`` kernel (views inside the image, windows staged through the
border mapping elsewhere); each step also records its ISP split (per-axis
strips with check sets, paper Eq. 1) for the textual schedule.

The schedule is pure geometry: it depends on the traced kernels and the
tile shape, never on pixel values or batch size, so it is computed once at
plan-build time and replayed by the executor
(:mod:`repro.runtime.fused`) on every request.

Halo propagation must be *mapping-aware*: REPEAT and deep MIRROR
excursions send an out-of-range read to the far side of the image, so a
producer's required region is the interval hull of the border-mapped read
coordinates (via :func:`repro.dsl.boundary.reference_index`, the repo's
scalar golden mapping), not a naive clipped expansion.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..dsl.boundary import Boundary, reference_index
from .frontend import KernelDescription

#: Default row-band height for fused tiles. Chosen so a handful of live
#: stage buffers (band + halo, full width) stay cache-resident at the
#: paper's image sizes while the redundant halo recompute stays ~10-20%
#: for the Night pipeline's cumulative extents.
DEFAULT_TILE_ROWS = 128


@dataclasses.dataclass(frozen=True)
class FusedStep:
    """One stage evaluation inside one tile."""

    #: index into ``FusedPlan.descs``
    stage: int
    #: produced buffer region (x0, x1, y0, y1) in image coordinates
    region: tuple[int, int, int, int]
    #: ISP split of the region: (x0, x1, y0, y1, checks) sub-rectangles;
    #: empty checks = check-free interior. Printed by :meth:`FusedPlan
    #: .describe` (the fused-plan goldens); the host tiles a step itself
    subrects: tuple[tuple[int, int, int, int, frozenset[str]], ...]


@dataclasses.dataclass(frozen=True)
class TileSchedule:
    """All stage evaluations needed to produce one output tile."""

    #: output tile (x0, x1, y0, y1)
    rect: tuple[int, int, int, int]
    #: steps in execution (front-to-back) order
    steps: tuple[FusedStep, ...]


@dataclasses.dataclass(frozen=True)
class FusedPlan:
    """A pipeline lowered onto overlapped tiles — geometry only."""

    name: str
    descs: tuple[KernelDescription, ...]
    width: int
    height: int
    tile_rows: int
    tile_cols: int
    #: cumulative halo per image name (stage outputs and external inputs):
    #: how far beyond an output tile that image is read, per axis
    halos: dict[str, tuple[int, int]]
    #: stage output names that feed the final output (dead stages excluded)
    live: frozenset[str]
    #: external input image names
    external_inputs: tuple[str, ...]
    tiles: tuple[TileSchedule, ...]

    @property
    def output_name(self) -> str:
        return self.descs[-1].output_name

    def amplification(self) -> dict[str, float]:
        """Computed-area / image-area per stage (the fusion overhead).

        1.0 means the stage computes exactly its staged footprint; >1.0 is
        redundant halo recompute; 0.0 is a dead stage fusion skips (staged
        execution still pays for it).
        """
        # Sum integer pixel counts first, divide once: a stage whose tile
        # regions exactly cover the image reports 1.0 with no float drift.
        pixels = {d.output_name: 0 for d in self.descs}
        for tile in self.tiles:
            for step in tile.steps:
                x0, x1, y0, y1 = step.region
                pixels[self.descs[step.stage].output_name] += (
                    (x1 - x0) * (y1 - y0)
                )
        area = self.width * self.height
        return {name: n / area for name, n in pixels.items()}

    def describe(self) -> str:
        """Deterministic textual form of the fused plan (golden-able)."""
        lines = [
            f"fused-plan {self.name} geom={self.width}x{self.height} "
            f"tile={self.tile_cols}x{self.tile_rows} "
            f"tiles={len(self.tiles)}",
        ]
        for d in self.descs:
            tag = "live" if d.output_name in self.live else "dead"
            reads = ", ".join(
                f"{a.image.name}[{_acc_extent(d, a)}]:{a.boundary.value}"
                for a in d.accessors
            )
            lines.append(
                f"stage {d.name} -> {d.output_name} "
                f"extent=({d.extent[0]},{d.extent[1]}) {tag} reads {reads}"
            )
        for name in sorted(self.halos):
            hx, hy = self.halos[name]
            lines.append(f"halo {name}=({hx},{hy})")
        for name, a in sorted(self.amplification().items()):
            lines.append(f"amplification {name}={a:.4f}")
        for tile in self.tiles:
            x0, x1, y0, y1 = tile.rect
            lines.append(f"tile x[{x0}:{x1}) y[{y0}:{y1})")
            for step in tile.steps:
                d = self.descs[step.stage]
                rx0, rx1, ry0, ry1 = step.region
                lines.append(
                    f"  stage {d.output_name} region "
                    f"x[{rx0}:{rx1}) y[{ry0}:{ry1})"
                )
                for sx0, sx1, sy0, sy1, checks in step.subrects:
                    tag = "+".join(sorted(checks)) if checks else "free"
                    lines.append(
                        f"    sub x[{sx0}:{sx1}) y[{sy0}:{sy1}) "
                        f"checks={tag}"
                    )
        return "\n".join(lines) + "\n"


def _acc_extent(desc: KernelDescription, acc) -> str:
    nodes = desc.accesses.get(id(acc), [])
    if not nodes:
        return "0,0"
    hx = max(abs(n.dx) for n in nodes)
    hy = max(abs(n.dy) for n in nodes)
    return f"{hx},{hy}"


def _axis_strips(
    lo_cut: int, hi_cut: int, size: int, lo_check: str, hi_check: str
) -> list[tuple[int, int, frozenset[str]]]:
    """Three strips [0,lo_cut)/[lo_cut,hi_cut)/[hi_cut,size) with their
    check sides; an over-wide window (``lo_cut > hi_cut``) collapses the
    axis to a single both-checked strip, which is always safe because
    checking a side a coordinate never crosses is the identity mapping."""
    if lo_cut > hi_cut:
        return [(0, size, frozenset({lo_check, hi_check}))]
    return [
        (0, lo_cut, frozenset({lo_check})),
        (lo_cut, hi_cut, frozenset()),
        (hi_cut, size, frozenset({hi_check})),
    ]


def split_region(
    region: tuple[int, int, int, int], width: int, height: int,
    x_cuts: tuple[int, int], y_cuts: tuple[int, int],
) -> tuple[tuple[int, int, int, int, frozenset[str]], ...]:
    """Split ``region`` (x0, x1, y0, y1) by image-level ISP cuts.

    Columns below ``x_cuts[0]`` check the left border and columns from
    ``x_cuts[1]`` the right one; ``y_cuts`` does the same for top/bottom.
    Returns the non-empty (x0, x1, y0, y1, checks) sub-rectangles, rows
    outer. A sub-rectangle's check set says which true image borders its
    reads may cross. Fused steps record their split at the stage's extent
    (paper Eq. 1 at pixel granularity) for :meth:`FusedPlan.describe`.
    """
    x0, x1, y0, y1 = region
    xs = _axis_strips(*x_cuts, width, "left", "right")
    ys = _axis_strips(*y_cuts, height, "top", "bottom")
    out = []
    for sy0, sy1, cy in ys:
        iy0, iy1 = max(y0, sy0), min(y1, sy1)
        if iy0 >= iy1:
            continue
        for sx0, sx1, cx in xs:
            ix0, ix1 = max(x0, sx0), min(x1, sx1)
            if ix0 >= ix1:
                continue
            out.append((ix0, ix1, iy0, iy1, cx | cy))
    return tuple(out)


def _axis_hull(
    lo: int, hi: int, size: int, boundary: Boundary
) -> tuple[int, int]:
    """Interval hull [a, b) of the border-mapped read range [lo, hi).

    In-range reads map to themselves; out-of-range reads map per pattern —
    non-locally for REPEAT and deep MIRROR, which is why this walks the
    scalar golden mapping instead of clipping. CONSTANT out-of-range reads
    still *index* the clamped coordinate before masking (the host's total
    mapping clamps, and a staged window's bounds check covers the clamped
    index), so they hull to the clamped edge.
    """
    if lo >= hi:
        return lo, hi
    if 0 <= lo and hi <= size:
        return lo, hi
    a, b = size, -1
    for c in range(lo, hi):
        if boundary is Boundary.UNDEFINED or boundary is Boundary.CONSTANT:
            m = min(max(c, 0), size - 1)
        else:
            m = reference_index(c, size, boundary)
        a, b = min(a, m), max(b, m)
    return a, b + 1


def _required_region(
    region: tuple[int, int, int, int],
    desc: KernelDescription,
    acc,
    width: int,
    height: int,
) -> Optional[tuple[int, int, int, int]]:
    """The producer region one accessor's reads of ``region`` require."""
    nodes = desc.accesses.get(id(acc), [])
    if not nodes:
        return None
    x0, x1, y0, y1 = region
    min_dx = min(n.dx for n in nodes)
    max_dx = max(n.dx for n in nodes)
    min_dy = min(n.dy for n in nodes)
    max_dy = max(n.dy for n in nodes)
    rx0, rx1 = _axis_hull(x0 + min_dx, x1 + max_dx, width, acc.boundary)
    ry0, ry1 = _axis_hull(y0 + min_dy, y1 + max_dy, height, acc.boundary)
    return rx0, rx1, ry0, ry1


def _union(
    a: Optional[tuple[int, int, int, int]], b: tuple[int, int, int, int]
) -> tuple[int, int, int, int]:
    if a is None:
        return b
    return min(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), max(a[3], b[3])


def cumulative_halos(
    descs: list[KernelDescription] | tuple[KernelDescription, ...],
) -> dict[str, tuple[int, int]]:
    """Per-image cumulative halo, propagated back-to-front.

    ``halos[name]`` is how far beyond an output tile the image ``name`` is
    read when every downstream stage recomputes its halo: 0 for the final
    output; for anything else the max over consumers of the consumer's own
    cumulative halo plus that accessor's read extent. For a simple chain
    this is exactly the suffix sum of per-stage extents (pinned by the
    hypothesis property suite).
    """
    produced = [d.output_name for d in descs]
    cum: dict[str, Optional[tuple[int, int]]] = {n: None for n in produced}
    cum[produced[-1]] = (0, 0)
    halos: dict[str, tuple[int, int]] = {produced[-1]: (0, 0)}
    for d in reversed(list(descs)):
        my = cum.get(d.output_name)
        if my is None:
            continue  # dead stage: nothing downstream reads it
        halos[d.output_name] = my
        for acc in d.accessors:
            nodes = d.accesses.get(id(acc), [])
            if not nodes:
                continue
            ahx = max(abs(n.dx) for n in nodes)
            ahy = max(abs(n.dy) for n in nodes)
            reach = (my[0] + ahx, my[1] + ahy)
            name = acc.image.name
            prev = halos.get(name)
            best = (
                reach if prev is None
                else (max(prev[0], reach[0]), max(prev[1], reach[1]))
            )
            halos[name] = best
            if name in cum:
                cum[name] = best
    return halos


def fuse_descs(
    descs: list[KernelDescription] | tuple[KernelDescription, ...],
    *,
    tile_rows: Optional[int] = None,
    tile_cols: Optional[int] = None,
    name: str = "pipeline",
) -> FusedPlan:
    """Lower traced pipeline stages to a fused overlapped-tile plan.

    ``descs`` must be in producer-before-consumer order (the order a
    :class:`~repro.dsl.pipeline.Pipeline` validates). ``tile_rows`` /
    ``tile_cols`` default to :data:`DEFAULT_TILE_ROWS`-row full-width bands;
    tiles smaller than the cumulative halo are legal — the halo hull is
    clipped to the image by the border mapping itself.
    """
    descs = tuple(descs)
    if not descs:
        raise ValueError("fuse_descs needs at least one stage")
    width, height = descs[0].width, descs[0].height
    for d in descs:
        if (d.width, d.height) != (width, height):
            raise ValueError(
                f"stage {d.name!r} geometry {d.width}x{d.height} != "
                f"{width}x{height}"
            )
    produced = {d.output_name for d in descs}
    if tile_rows is None:
        tile_rows = DEFAULT_TILE_ROWS
    if tile_cols is None:
        tile_cols = width
    tile_rows = max(1, min(int(tile_rows), height))
    tile_cols = max(1, min(int(tile_cols), width))

    halos = cumulative_halos(descs)
    external = tuple(
        n for n in _read_order(descs) if n not in produced
    )
    live = frozenset(n for n in halos if n in produced)

    tiles = []
    for ty0 in range(0, height, tile_rows):
        ty1 = min(ty0 + tile_rows, height)
        for tx0 in range(0, width, tile_cols):
            tx1 = min(tx0 + tile_cols, width)
            tiles.append(
                _schedule_tile(descs, produced, (tx0, tx1, ty0, ty1),
                               width, height)
            )
    return FusedPlan(
        name=name,
        descs=descs,
        width=width,
        height=height,
        tile_rows=tile_rows,
        tile_cols=tile_cols,
        halos=halos,
        live=live,
        external_inputs=external,
        tiles=tuple(tiles),
    )


def _read_order(descs: tuple[KernelDescription, ...]) -> list[str]:
    seen: list[str] = []
    for d in descs:
        for acc in d.accessors:
            if acc.image.name not in seen:
                seen.append(acc.image.name)
    return seen


def _schedule_tile(
    descs: tuple[KernelDescription, ...],
    produced: set[str],
    tile: tuple[int, int, int, int],
    width: int,
    height: int,
) -> TileSchedule:
    """Back-to-front requirement propagation, then front-to-back steps."""
    req: dict[str, Optional[tuple[int, int, int, int]]] = {
        d.output_name: None for d in descs
    }
    req[descs[-1].output_name] = tile
    regions: list[Optional[tuple[int, int, int, int]]] = [None] * len(descs)
    for i in range(len(descs) - 1, -1, -1):
        d = descs[i]
        region = req[d.output_name]
        if region is None:
            continue  # dead stage — staged execution pays for it, fusion skips
        regions[i] = region
        for acc in d.accessors:
            if acc.image.name not in produced:
                continue
            need = _required_region(region, d, acc, width, height)
            if need is not None:
                req[acc.image.name] = _union(req[acc.image.name], need)
    steps = []
    for i, d in enumerate(descs):
        region = regions[i]
        if region is None:
            continue
        hx, hy = d.extent
        steps.append(
            FusedStep(
                stage=i,
                region=region,
                subrects=split_region(region, width, height,
                                      (hx, width - hx), (hy, height - hy)),
            )
        )
    return TileSchedule(rect=tile, steps=tuple(steps))


__all__ = [
    "DEFAULT_TILE_ROWS",
    "FusedPlan",
    "FusedStep",
    "TileSchedule",
    "cumulative_halos",
    "fuse_descs",
    "split_region",
]
