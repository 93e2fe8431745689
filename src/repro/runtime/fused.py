"""Fused pipeline executor: overlapped tiles, halos recomputed per tile.

Replays the geometry-only schedule built by
:func:`repro.compiler.fusion.fuse_descs`: for each output tile, every live
stage evaluates just the region its consumers read into a per-tile stage
buffer, so no full-image intermediate is ever materialized. Each step
runs through the staged executor's tape runner
(:func:`repro.runtime.vectorized.run_tape`): the stage's tape reads each
per-tile buffer as a source whose origin is that buffer's region origin,
and external inputs as full images at origin (0, 0). A step's region runs
the staged ``isp`` schedule: its host tiles whose halo lies inside the
image read views, and the others stage their windows through the same
total border mapping as the staged executor. That is what makes fused
output bit-exact against staged — both select source pixels through the
identical mapping and run the identical tape, whose every op is an
elementwise float32 ufunc whose value is independent of the evaluation
footprint. The last stage writes straight into the output tile.

Stage buffers and tape scratch come from one pool per call, so a
many-tile plan allocates each once rather than once per tile. Like every
other executor here, the fused path is batch-aware: leading axes on the
external inputs carry through each per-tile buffer untouched.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..compiler.frontend import trace_kernel
from ..compiler.fusion import FusedPlan, fuse_descs
from ..dsl.pipeline import Pipeline
from ..trace import core as _trace_core
from .make_border import ELEMENT_DTYPE
from .vectorized import (
    Source,
    _bind_inputs,
    _check_inputs,
    _take,
    lower,
    run_tape,
    schedule,
)


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
        name: (np.asarray(images[name], dtype=ELEMENT_DTYPE), 0, 0)
        for name in plan.external_inputs
    }

    w, h = plan.width, plan.height
    last = len(plan.descs) - 1
    out = np.empty((*lead, h, w), dtype=ELEMENT_DTYPE)
    pool: dict = {}
    for tile in plan.tiles:
        bufs = dict(ext)
        for step in tile.steps:
            desc = plan.descs[step.stage]
            tape = lower(desc)
            x0, x1, y0, y1 = step.region
            if step.stage == last:
                dest: Source = (out, 0, 0)  # its region is the tile
            else:
                dest = (_take(pool, ("stage", step.stage),
                              (*lead, y1 - y0, x1 - x0)), x0, y0)
            # The step's region runs the isp schedule: host tiles inside
            # the image read views, the rest are staged.
            run_tape(tape, schedule("isp", w, h, *desc.extent,
                                    region=step.region),
                     [bufs[acc.image.name] for acc in tape.accessors],
                     dest, w, h, pool)
            bufs[desc.output_name] = dest

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
