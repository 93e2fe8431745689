"""Fused pipeline executor: overlapped tiles, halos recomputed per tile.

Replays the geometry-only schedule built by
:func:`repro.compiler.fusion.fuse_descs`: for each output tile, every live
stage evaluates just the region its consumers read into a small per-tile
buffer, so no full-image intermediate is ever materialized. Each step is one
more set of rectangles for the staged executor's region evaluator
(:mod:`repro.runtime.vectorized`): a stage's taps read each per-tile buffer
as a source whose origin is that buffer's region origin, and external
inputs as full images at origin (0, 0). Border mapping runs against the
full image size through the same vectorized mapping as the staged
nine-region executor, which is what makes fused output bit-exact against
staged — both select source pixels through the identical mapping, and every
arithmetic node is an elementwise float32 NumPy op whose value is
independent of the evaluation footprint.

Like every other executor here, the fused path is batch-aware: leading axes
on the external inputs carry through each per-tile buffer untouched.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..compiler.frontend import trace_kernel
from ..compiler.fusion import FusedPlan, fuse_descs
from ..dsl.pipeline import Pipeline
from ..trace import core as _trace_core
from .vectorized import Source, _bind_inputs, _check_inputs, _eval_rects


def run_fused(
    plan: FusedPlan, images: dict[str, np.ndarray]
) -> np.ndarray:
    """Execute a fused plan over its external inputs; returns the final
    output image (intermediates are deliberately never materialized in
    full — that is the point)."""
    trace_ctx = None
    if _trace_core._current is not None:
        trace_ctx = _trace_core.current_context()
    t_start = time.perf_counter() if trace_ctx is not None else 0.0

    external = set(plan.external_inputs)
    lead = _check_inputs(
        [acc for d in plan.descs for acc in d.accessors
         if acc.image.name in external],
        images,
    )
    ext: dict[str, Source] = {
        name: (np.asarray(images[name], dtype=np.float32), 0, 0)
        for name in plan.external_inputs
    }

    out = np.empty((*lead, plan.height, plan.width), dtype=np.float32)
    for tile in plan.tiles:
        bufs = dict(ext)
        for step in tile.steps:
            desc = plan.descs[step.stage]
            rx0, rx1, ry0, ry1 = step.region
            buf = np.empty((*lead, ry1 - ry0, rx1 - rx0), dtype=np.float32)
            sources = {id(acc): bufs[acc.image.name] for acc in desc.accessors}
            _eval_rects(desc, sources, step.subrects, buf, rx0, ry0)
            bufs[desc.output_name] = (buf, rx0, ry0)
        fbuf, fx, fy = bufs[plan.output_name]
        tx0, tx1, ty0, ty1 = tile.rect
        out[..., ty0:ty1, tx0:tx1] = fbuf[
            ..., ty0 - fy : ty1 - fy, tx0 - fx : tx1 - fx
        ]

    if trace_ctx is not None:
        tracer, parent = trace_ctx
        tracer.record_span(
            f"fused:{plan.name}", parent, t_start, time.perf_counter(),
            variant="fused", tiles=len(plan.tiles),
            stages=len(plan.descs),
        )
    return out


def run_pipeline_fused(
    pipeline: Pipeline,
    inputs: Optional[dict[str, np.ndarray]] = None,
    *,
    tile_rows: Optional[int] = None,
    tile_cols: Optional[int] = None,
    plan: Optional[FusedPlan] = None,
) -> np.ndarray:
    """Trace, fuse and execute a pipeline; returns the final output.

    The staged counterpart is :func:`~repro.runtime.vectorized
    .run_pipeline_vectorized`, which returns every intermediate — the fused
    path cannot, by construction. Pass ``plan`` to reuse a previously built
    fused schedule (the serve plan cache does).
    """
    if plan is None:
        descs = [trace_kernel(k) for k in pipeline]
        plan = fuse_descs(
            descs, tile_rows=tile_rows, tile_cols=tile_cols,
            name=pipeline.name,
        )
    return run_fused(plan, _bind_inputs(pipeline, inputs))


__all__ = ["run_fused", "run_pipeline_fused"]
