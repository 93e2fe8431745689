"""Vectorized host executor: region-sliced NumPy evaluation of DSL kernels.

This is the second execution path of DESIGN.md: it evaluates the *same*
kernel description the compiler lowers, but with whole-array NumPy operations
on the host. Every variant runs the one region evaluator
(:class:`_RegionEvaluator`) over a list of output rectangles, each carrying
the border sides its taps may cross; the variants differ only in the
rectangles and in the *source* each tap reads — a buffer plus the image
coordinates of its origin:

* ``naive`` — one rectangle with every check: each tap's coordinates go
  through the full border mapping (``np.clip`` / modulo / reflection over
  the entire coordinate range), the host analogue of executing the checks
  for every pixel;
* ``isp`` — the iteration space is partitioned at *pixel* granularity into
  the nine regions (the CPU partitioning of paper Section III-C, Eq. 1,
  split by :func:`repro.compiler.fusion.split_region`); the Body region
  evaluates with pure slicing — no index mapping at all — and only the thin
  border strips pay for the mapping;
* ``isp_warp`` — the nine regions with warp-aligned x cuts (paper
  Listing 5's granularity);
* ``prepad`` — the raw-speed tier: :func:`repro.runtime.make_border
  .make_border` materializes the apron once, then one check-free rectangle
  reads the padded buffer, whose origin sits at image coordinates
  ``(-hx, -hy)``. The copy is O(area) but amortizes across taps, pipeline
  stages (one ``pad_cache`` shared across calls) and repeated same-image
  requests — exactly the serve workload where the paper's "padding is
  costly" framing (Section I) inverts.

The fused executor (:mod:`repro.runtime.fused`) drives the same evaluator
over per-tile stage buffers. Every read is bounds-checked against its
source buffer and a read outside raises :class:`OutOfBoundsError` — a plain
check, so it holds under ``python -O`` as well.

Because the border strips are O(perimeter) while the body is O(area), the
host speedup of ``isp`` over ``naive`` grows with image size exactly like the
paper's Figure 3 predicts, which makes this executor a genuinely *measured*
(wall-clock) reproduction of the ISP effect; ``benchmarks/
bench_wallclock_vectorized.py`` times it with pytest-benchmark.

Every variant is batch-aware: images may carry leading axes (``(N, H, W)``),
which evaluate in one NumPy call per tap — the kernel-level batching the
serve engine stacks same-signature requests into.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional

import numpy as np

from ..compiler.frontend import KernelDescription, trace_kernel
from ..compiler.fusion import split_region
from ..dsl.accessor import Accessor
from ..dsl.boundary import Boundary
from ..faults import core as _faults
from ..faults.core import FaultError
from ..trace import core as _trace_core
from ..dsl.expr import BinOp, Const, Expr, PixelAccess, UnOp
from ..dsl.pipeline import Pipeline

_UN_FUNCS = {
    "neg": lambda x: -x,
    "abs": np.abs,
    "sqrt": np.sqrt,
    "rsqrt": lambda x: np.float32(1.0) / np.sqrt(x),
    "rcp": lambda x: np.float32(1.0) / x,
    "exp": np.exp,
    "exp2": np.exp2,
    "log": np.log,
    "log2": np.log2,
    "sin": np.sin,
    "cos": np.cos,
}

_BIN_FUNCS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "min": np.minimum,
    "max": np.maximum,
}

#: Output-pixel rectangle ``(x0, x1, y0, y1, checks)``: columns [x0, x1),
#: rows [y0, y1), and the border sides its taps may cross — the
#: sub-rectangle form :func:`repro.compiler.fusion.split_region` returns.
Rect = tuple[int, int, int, int, frozenset]

#: Where a tap reads: ``(buffer, ox, oy)`` — the buffer's element
#: ``[..., 0, 0]`` holds image pixel ``(ox, oy)``.
Source = tuple[np.ndarray, int, int]


class OutOfBoundsError(IndexError):
    """A tap read fell outside its source buffer.

    NumPy would wrap a negative index to the far side of the buffer instead
    of failing, so every read is checked before it is indexed.
    """


#: Default warp width (NVIDIA) — the x-granularity of the warp-grained
#: re-routing in paper Listing 5. Callers with a device in hand pass
#: ``device.warp_size`` instead (64 on the wave64 AMD-like zoo entries).
WARP_WIDTH = 32

#: Every vectorized code shape this executor can run.
VECTORIZED_VARIANTS = ("naive", "isp", "isp_warp", "prepad")


def degenerate_geometry(width: int, height: int, hx: int, hy: int) -> bool:
    """Pixel-granularity degenerate-geometry predicate, shared by every
    caller that must agree on when the nine-region scheme is expressible.

    An axis is degenerate when some pixel needs checks on *both* of its
    sides: pixel ``x`` needs left checks iff ``x < hx`` and right checks iff
    ``x >= width - hx``, so a both-sided pixel exists iff
    ``width - hx < hx``, i.e. ``width < 2*hx``. The boundary case
    ``width == 2*hx`` is *not* degenerate — the Body strip is empty but
    every remaining strip is single-sided, which the region evaluator
    handles exactly (pinned by the ``w in {2hx-1, 2hx, 2hx+1}`` edge tests).
    This is precisely :class:`repro.compiler.regions.RegionGeometry`'s
    ``degenerate`` at block granularity ``(1, 1)``, which is what makes the
    two layers' fallback conditions agree (asserted by
    ``tests/test_runtime_vectorized.py``); the compiler's *block-granular*
    condition is strictly more conservative for real block shapes.
    """
    return (hx > 0 and width < 2 * hx) or (hy > 0 and height < 2 * hy)


def _variant_rects(
    variant: str, width: int, height: int, hx: int, hy: int, warp: int
) -> list[Rect]:
    """The output rectangles one variant evaluates.

    ``isp`` cuts at the window extent (paper Eq. 1); ``isp_warp`` rounds
    the x cuts outward to warp multiples — a warp is the granularity at
    which the GPU dispatch re-routes work (paper Listing 5), so the L/R
    strips widen to whole warps, whose extra pixels run harmless identity
    checks, while the Body stays check-free. Both fall back to the naive
    single rectangle on degenerate geometry, like the compiler.
    """
    if variant == "prepad":
        # No degenerate fallback: the total mappings in make_border handle
        # any apron depth, over-wide windows included.
        return [(0, width, 0, height, frozenset())]
    if variant not in VECTORIZED_VARIANTS:
        raise ValueError(f"unknown vectorized variant {variant!r}")
    if variant == "naive" or degenerate_geometry(width, height, hx, hy):
        checks = set()
        if hx > 0:
            checks |= {"left", "right"}
        if hy > 0:
            checks |= {"top", "bottom"}
        return [(0, width, 0, height, frozenset(checks))]
    x_cuts = (hx, width - hx)
    if variant == "isp_warp" and hx > 0:
        x_cuts = (-(-hx // warp) * warp, ((width - hx) // warp) * warp)
    return list(split_region((0, width, 0, height), width, height,
                             x_cuts, (hy, height - hy)))


def _map_axis(
    coords: np.ndarray,
    size: int,
    boundary: Boundary,
    check_low: bool,
    check_high: bool,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Vectorized analogue of :func:`repro.compiler.border.emit_axis_checks`.

    Returns (mapped coordinates, validity mask or None).
    """
    if not (check_low or check_high) or boundary is Boundary.UNDEFINED:
        return coords, None
    if boundary is Boundary.CLAMP:
        if check_low and check_high:
            return np.clip(coords, 0, size - 1), None
        if check_low:
            return np.maximum(coords, 0), None
        return np.minimum(coords, size - 1), None
    if boundary is Boundary.MIRROR:
        c = coords
        need_total = check_low and check_high
        if not need_total and c.size:
            # The per-tap sign filter can leave only one side checked even
            # though the tap reaches more than one image-size past the edge
            # (degenerate geometry); a single reflection would then exit the
            # opposite side, so promote to the total mapping.
            if check_low and (c.min() < -size or c.max() >= size):
                need_total = True
            if check_high and (c.max() >= 2 * size or c.min() < 0):
                need_total = True
        if need_total:
            # Total triangular reflection, bit-identical to the IR lowering
            # in ``emit_axis_checks``: floored mod by the period, then
            # reflect the upper half.  A single reflection per side is wrong
            # for taps more than one image-size past the edge (c=-7, size=3
            # -> 6 -> -1, which fancy indexing silently wraps).
            r = np.mod(c, 2 * size)
            return np.where(r < size, r, 2 * size - 1 - r), None
        if check_low:
            c = np.where(c < 0, -c - 1, c)
        if check_high:
            c = np.where(c >= size, 2 * size - 1 - c, c)
        return c, None
    if boundary is Boundary.REPEAT:
        return np.mod(coords, size), None
    if boundary is Boundary.CONSTANT:
        valid = np.ones(coords.shape, dtype=bool)
        c = coords
        if check_low:
            valid &= c >= 0
            c = np.maximum(c, 0)
        if check_high:
            valid &= c < size
            c = np.minimum(c, size - 1)
        return c, valid
    raise AssertionError(f"unhandled boundary {boundary}")


class _RegionEvaluator:
    """Evaluates the expression tree over one output rectangle.

    ``sources`` maps ``id(accessor)`` to the :data:`Source` its taps read.
    Border mapping always runs against the full image size (every image a
    kernel reads shares its output geometry), then translates into buffer
    coordinates.
    """

    def __init__(
        self,
        desc: KernelDescription,
        sources: dict[int, Source],
        rect: Rect,
    ):
        self.desc = desc
        self.sources = sources
        self.rect = rect
        self._memo: dict[int, np.ndarray] = {}

    def eval(self, expr: Expr) -> np.ndarray:
        # Iterative post-order evaluation: a convolution over a large window
        # is one add-chain as deep as the tap count, which overflows Python's
        # recursion limit exactly in the small-image / large-window corner
        # the border tests care about.
        memo = self._memo
        stack = [expr]
        while stack:
            node = stack[-1]
            if id(node) in memo:
                stack.pop()
                continue
            if isinstance(node, BinOp):
                deps = (node.lhs, node.rhs)
            elif isinstance(node, UnOp):
                deps = (node.operand,)
            else:
                deps = ()
            pending = [d for d in deps if id(d) not in memo]
            if pending:
                stack.extend(pending)
                continue
            memo[id(node)] = self._eval_node(node)
            stack.pop()
        return memo[id(expr)]

    def _eval_node(self, expr: Expr) -> np.ndarray:
        """Evaluate one node whose children are already memoized."""
        if isinstance(expr, Const):
            return np.float32(expr.value)
        if isinstance(expr, BinOp):
            lhs, rhs = self._memo[id(expr.lhs)], self._memo[id(expr.rhs)]
            return _BIN_FUNCS[expr.op](lhs, rhs, dtype=np.float32)
        if isinstance(expr, UnOp):
            src = self._memo[id(expr.operand)]
            return _UN_FUNCS[expr.op](src).astype(np.float32, copy=False)
        if isinstance(expr, PixelAccess):
            return self._eval_access(expr)
        raise TypeError(f"cannot evaluate {expr!r}")

    def _eval_access(self, access: PixelAccess) -> np.ndarray:
        acc = access.accessor
        buf, ox, oy = self.sources[id(acc)]
        bh, bw = buf.shape[-2:]
        x0, x1, y0, y1, checks = self.rect
        dx, dy = access.dx, access.dy

        check_left = dx < 0 and "left" in checks
        check_right = dx > 0 and "right" in checks
        check_top = dy < 0 and "top" in checks
        check_bottom = dy > 0 and "bottom" in checks

        if not (check_left or check_right or check_top or check_bottom):
            # Body fast path: a pure slice — the host analogue of the
            # check-free Body region code. The ellipsis carries any leading
            # batch axes through untouched.
            r0, r1 = y0 + dy - oy, y1 + dy - oy
            c0, c1 = x0 + dx - ox, x1 + dx - ox
            if r0 < 0 or c0 < 0 or r1 > bh or c1 > bw:
                raise OutOfBoundsError(
                    f"{access!r} slices rows [{r0}:{r1}) cols [{c0}:{c1}) "
                    f"of a {bh}x{bw} source"
                )
            return buf[..., r0:r1, c0:c1]

        boundary = acc.boundary
        xs, vx = _map_axis(np.arange(x0 + dx, x1 + dx), self.desc.width,
                           boundary, check_left, check_right)
        ys, vy = _map_axis(np.arange(y0 + dy, y1 + dy), self.desc.height,
                           boundary, check_top, check_bottom)
        if ox:
            xs = xs - ox
        if oy:
            ys = ys - oy
        # A mapping applied on one side must never push a coordinate out
        # the *opposite* side, and an unchecked axis must already be in the
        # buffer.
        if xs.min() < 0 or xs.max() >= bw or ys.min() < 0 or ys.max() >= bh:
            raise OutOfBoundsError(
                f"{boundary.value} mapping of {access!r} reads rows "
                f"[{ys.min()}, {ys.max()}] cols [{xs.min()}, {xs.max()}] "
                f"of a {bh}x{bw} source"
            )
        values = buf[..., ys[:, None], xs[None, :]]
        if vx is not None or vy is not None:
            valid = np.ones((ys.size, xs.size), dtype=bool)
            if vy is not None:
                valid &= vy[:, None]
            if vx is not None:
                valid &= vx[None, :]
            values = np.where(
                valid, values, np.float32(acc.constant)
            ).astype(np.float32)
        return values


def _eval_rects(
    desc: KernelDescription,
    sources: dict[int, Source],
    rects: Iterable[Rect],
    out: np.ndarray,
    ox: int = 0,
    oy: int = 0,
) -> None:
    """Evaluate ``desc`` over each rectangle into ``out``, a buffer whose
    origin sits at image coordinates ``(ox, oy)``."""
    for rect in rects:
        x0, x1, y0, y1, _ = rect
        out[..., y0 - oy : y1 - oy, x0 - ox : x1 - ox] = _RegionEvaluator(
            desc, sources, rect
        ).eval(desc.expr)


def _split_rows(rects: list[Rect], tile_rows: int) -> list[Rect]:
    """Split tall rectangles into row bands of at most ``tile_rows`` rows.

    The checks set of a band equals its parent's (checks depend only on
    which true image borders a rectangle touches, and coordinates stay
    absolute), so banding never changes results — it only bounds the peak
    temporary-array footprint, which is what lets a serve worker stream a
    large request instead of materializing whole-image intermediates per tap.
    """
    if tile_rows <= 0:
        raise ValueError("tile_rows must be positive")
    return [
        (x0, x1, y, min(y + tile_rows, y1), checks)
        for x0, x1, y0, y1, checks in rects
        for y in range(y0, y1, tile_rows)
    ]


def _check_inputs(
    accessors: Iterable[Accessor], images: dict[str, np.ndarray]
) -> tuple[int, ...]:
    """Validate the inputs ``accessors`` read; return their common leading
    (batch) shape.

    Each input must be present, shaped ``(..., H, W)`` with ``(H, W)`` its
    accessor's declared image geometry, and lead with the same batch shape
    as every other input — one call is one batch. Plain single-image
    execution has the empty leading shape; an ``(N, H, W)`` stack leads
    with ``(N,)``. Every host variant, fused included, validates here once
    per call.
    """
    lead: Optional[tuple[int, ...]] = None
    for acc in accessors:
        name = acc.image.name
        if name not in images:
            raise ValueError(f"missing input {name!r}")
        # rank via shape, not .ndim: the sanitizer's canary wrappers are
        # duck-typed images exposing only shape/__getitem__
        shape = tuple(images[name].shape)
        if len(shape) < 2 or shape[-2:] != acc.image.shape:
            raise ValueError(
                f"input {name!r} shape {shape} != (..., "
                f"{acc.image.height}, {acc.image.width})"
            )
        if lead is None:
            lead = shape[:-2]
        elif shape[:-2] != lead:
            raise ValueError(
                f"inconsistent batch shapes across inputs: {lead} vs "
                f"{shape[:-2]} for {name!r}"
            )
    return lead if lead is not None else ()


def run_kernel_vectorized(
    desc: KernelDescription,
    images: dict[str, np.ndarray],
    *,
    variant: str = "isp",
    tile_rows: Optional[int] = None,
    pad_cache: Optional[dict] = None,
    warp_width: int = WARP_WIDTH,
) -> np.ndarray:
    """Evaluate one kernel over its full iteration space.

    ``variant`` is ``"naive"`` (single region, full checks), ``"isp"``
    (nine pixel-granularity regions, Body check-free), ``"isp_warp"``
    (nine regions with warp-aligned x cuts) or ``"prepad"`` (materialize
    each input's border once via :func:`repro.runtime.make_border
    .make_border`, then run the single check-free Body evaluator over the
    whole padded image with offset coordinates). ``tile_rows`` caps the
    height of any evaluated rectangle (memory-bounded streaming for large
    images); ``None`` evaluates each region in one shot.

    Inputs may carry leading batch axes — ``(N, H, W)`` stacks evaluate
    in one call and produce an ``(N, H, W)`` output (kernel-level
    batching). ``pad_cache``, when given, lets ``prepad`` reuse padded
    buffers across calls on the same source arrays (see
    :func:`repro.runtime.make_border.padded_for`); callers that loop over
    taps/stages/requests on one image pay the gather exactly once.
    ``warp_width`` sets the ``isp_warp`` x-cut granularity — the active
    device's warp/wavefront size.
    """
    trace_ctx = None
    if _trace_core._current is not None:
        trace_ctx = _trace_core.current_context()
    t_start = time.perf_counter() if trace_ctx is not None else 0.0
    if _faults._current is not None:
        # Fault point: per-kernel vectorized evaluation — "latency" models a
        # slow co-tenant, "error" a failed evaluation the engine must retry
        # or surface as a typed failure.
        act = _faults.fire("runtime.vectorized.kernel",
                           kernel=desc.name, variant=variant)
        if act is not None:
            if act.kind == "latency":
                act.sleep()
            else:
                raise FaultError("runtime.vectorized.kernel", act.kind)
    h, w = desc.height, desc.width
    hx, hy = desc.extent
    rects = _variant_rects(variant, w, h, hx, hy, warp_width)
    lead = _check_inputs(desc.accessors, images)
    if variant == "prepad":
        from .make_border import padded_for

        # Without a caller's cache, a local one still pads each
        # (image, pattern) once per call however many accessors share it.
        cache = pad_cache if pad_cache is not None else {}
        sources = {}
        for acc in desc.accessors:
            # UNDEFINED promises every tap stays in bounds, so the apron's
            # values are unobservable — CLAMP is an in-bounds-sound stand-in
            # that keeps the gather total.
            boundary = acc.boundary
            if boundary is Boundary.UNDEFINED:
                boundary = Boundary.CLAMP
            padded = padded_for(images, acc.image.name, hx, hy, boundary,
                                float(acc.constant), cache=cache)
            sources[id(acc)] = (padded, -hx, -hy)
    else:
        sources = {id(acc): (images[acc.image.name], 0, 0)
                   for acc in desc.accessors}
    if tile_rows is not None:
        rects = _split_rows(rects, tile_rows)
    out = np.empty((*lead, h, w), dtype=np.float32)
    _eval_rects(desc, sources, rects, out)
    if trace_ctx is not None:
        tracer, parent = trace_ctx
        tracer.record_span(
            f"kernel:{desc.name}", parent, t_start, time.perf_counter(),
            variant=variant, tile_rows=tile_rows, regions=len(rects),
        )
    return out


def _bind_inputs(
    pipeline: Pipeline, inputs: Optional[dict[str, np.ndarray]]
) -> dict[str, np.ndarray]:
    """Each pipeline input as float32: from ``inputs`` when given there,
    else the image's bound host data."""
    images: dict[str, np.ndarray] = {}
    for img in pipeline.inputs:
        if inputs is not None and img.name in inputs:
            images[img.name] = np.asarray(inputs[img.name], dtype=np.float32)
        else:
            images[img.name] = img.host
    return images


def run_pipeline_vectorized(
    pipeline: Pipeline,
    inputs: Optional[dict[str, np.ndarray]] = None,
    *,
    variant: str = "isp",
    tile_rows: Optional[int] = None,
    pad_cache: Optional[dict] = None,
    warp_width: int = WARP_WIDTH,
) -> dict[str, np.ndarray]:
    """Run all pipeline stages; returns every produced image by name.

    Under ``variant="prepad"`` one pad cache spans every stage, so an
    image consumed by several stages (or several taps) under the same
    pattern is padded exactly once for the whole pipeline. Pass
    ``pad_cache`` to extend that reuse across *calls* on the same inputs.
    """
    images = _bind_inputs(pipeline, inputs)
    if variant == "prepad" and pad_cache is None:
        pad_cache = {}
    for kernel in pipeline:
        desc = trace_kernel(kernel)
        images[desc.output_name] = run_kernel_vectorized(
            desc, images, variant=variant, tile_rows=tile_rows,
            pad_cache=pad_cache, warp_width=warp_width,
        )
    return images
