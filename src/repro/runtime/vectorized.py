"""Vectorized host executor: each kernel as an op tape, run tile by tile.

This is the second execution path of DESIGN.md: it evaluates the *same*
kernel description the compiler lowers, but with whole-array NumPy operations
on the host. Two pieces do all the work:

* **a tape per kernel** — at its first use, :func:`lower` flattens the
  expression tree into a list of ufunc calls in the tree's own float32
  evaluation order (shared subexpressions once, constant subtrees folded)
  and memoizes it on the description. Each call writes with ``out=`` into
  a few scratch buffers allocated per call (cached plans are shared across
  worker threads, so nothing mutable lives on the tape); the root writes
  straight into the output;
* **a window per input per tile** — a tile reads each input through one
  window: the tile plus that input's tap hull. When the window lies inside
  its source the window is a view; otherwise it is a buffer staged by one
  gather through the total border mappings (:func:`repro.runtime
  .make_border.gather`). Every tap is then a slice of its window, and
  bounds are checked once per window: a read outside the source raises
  :class:`OutOfBoundsError`, a plain check that holds under ``python -O``.

The variants are schedules of tiles under one tile shape
(:data:`TILE_ROWS` x :data:`TILE_COLS`), so a 64² image is one tile:

* ``naive`` stages every tile through the full mapping — the host
  analogue of executing the checks for every pixel;
* ``isp`` reads views for the tiles whose halo lies inside the image —
  the paper's check-free Body (Section III-C) at tile granularity — and
  stages only the tiles that touch the edge;
* ``prepad`` is one staged tile over the whole image: :func:`repro.runtime
  .make_border.make_border` materializes the apron once (reused through a
  caller's ``pad_cache`` across stages and requests), then every tile
  reads a view of the padded buffer.

The fused executor (:mod:`repro.runtime.fused`) runs the same tapes and
windows over its per-tile stage buffers. Every variant is batch-aware:
images may carry leading axes (``(N, H, W)``), which ride through every
window and every op untouched — the kernel-level batching the serve
engine stacks same-signature requests into.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from typing import Iterable, Optional

import numpy as np

from ..compiler.frontend import KernelDescription, trace_kernel
from ..dsl.accessor import Accessor
from ..dsl.boundary import Boundary
from ..dsl.expr import BinOp, Const, PixelAccess, UnOp, walk
from ..dsl.pipeline import Pipeline
from ..faults import core as _faults
from ..faults.core import FaultError
from ..trace import core as _trace_core
from .make_border import ELEMENT_DTYPE, gather, padded_for, window_axis

#: Unary ops that are one ufunc; ``rsqrt`` and ``rcp`` lower to a divide.
_UNARY = {
    "neg": np.negative,
    "abs": np.absolute,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "exp2": np.exp2,
    "log": np.log,
    "log2": np.log2,
    "sin": np.sin,
    "cos": np.cos,
}

_BINARY = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "min": np.minimum,
    "max": np.maximum,
}

_ONE = np.float32(1.0)

#: Output tile ``(x0, x1, y0, y1, view)``: columns [x0, x1), rows [y0, y1),
#: and whether every input window of the tile is a view of its source
#: (``False``: staged through the border mapping).
Tile = tuple[int, int, int, int, bool]

#: Where an input lives: ``(buffer, ox, oy)`` — the buffer's element
#: ``[..., 0, 0]`` holds image pixel ``(ox, oy)``.
Source = tuple[np.ndarray, int, int]


class OutOfBoundsError(IndexError):
    """A window fell outside its source buffer.

    NumPy would wrap a negative index to the far side of the buffer instead
    of failing, so every window is checked before it is read.
    """


#: Every vectorized code shape this executor can run.
VECTORIZED_VARIANTS = ("naive", "isp", "prepad")

#: The one host tile shape. Large enough that a 64² request is one tile (the
#: per-tile Python cost is paid once), small enough that a tile's scratch
#: buffers stay cache-resident at the paper's image sizes.
TILE_ROWS = 128
TILE_COLS = 512


def degenerate_geometry(width: int, height: int, hx: int, hy: int) -> bool:
    """Pixel-granularity degenerate-geometry predicate, shared by every
    caller that must agree on when the nine-region scheme is expressible.

    An axis is degenerate when some pixel needs checks on *both* of its
    sides: pixel ``x`` needs left checks iff ``x < hx`` and right checks iff
    ``x >= width - hx``, so a both-sided pixel exists iff
    ``width - hx < hx``, i.e. ``width < 2*hx``. The boundary case
    ``width == 2*hx`` is *not* degenerate — the Body strip is empty but
    every remaining strip is single-sided. This is precisely
    :class:`repro.compiler.regions.RegionGeometry`'s ``degenerate`` at block
    granularity ``(1, 1)`` (asserted by ``tests/test_make_border.py``); the
    compiler's *block-granular* condition is strictly more conservative for
    real block shapes. On the host no tile of a degenerate image lies
    inside it, so every tile is staged.
    """
    return (hx > 0 and width < 2 * hx) or (hy > 0 and height < 2 * hy)


@functools.lru_cache(maxsize=256)
def schedule(
    variant: str, width: int, height: int, hx: int, hy: int,
    region: Optional[tuple[int, int, int, int]] = None,
) -> tuple[Tile, ...]:
    """The tiles one variant evaluates over ``region`` (x0, x1, y0, y1;
    default the whole image), rows outer.

    Tiles are at most :data:`TILE_ROWS` x :data:`TILE_COLS` and cover the
    region exactly once; which of them read views is the only thing the
    variants disagree on.
    """
    if variant not in VECTORIZED_VARIANTS:
        raise ValueError(f"unknown vectorized variant {variant!r}")
    rx0, rx1, ry0, ry1 = region or (0, width, 0, height)
    tiles = []
    for y0 in range(ry0, ry1, TILE_ROWS):
        y1 = min(y0 + TILE_ROWS, ry1)
        for x0 in range(rx0, rx1, TILE_COLS):
            x1 = min(x0 + TILE_COLS, rx1)
            if variant == "prepad":
                view = True
            elif variant == "naive":
                view = False
            else:
                view = (x0 >= hx and x1 + hx <= width
                        and y0 >= hy and y1 + hy <= height)
            tiles.append((x0, x1, y0, y1, view))
    return tuple(tiles)


@dataclasses.dataclass(frozen=True)
class Tape:
    """One kernel lowered to a flat list of ufunc calls.

    Operands index one value list per tile: the tap slices (``reads``),
    then the folded constants, then ``n_scratch`` scratch buffers, then the
    output. Each op is ``(ufunc, a, b, out)``, with ``b < 0`` for a unary
    call.
    """

    #: the accessors that are read, each with its tap hull
    #: ``(dx0, dx1, dy0, dy1)`` (inclusive)
    accessors: tuple[Accessor, ...]
    hulls: tuple[tuple[int, int, int, int], ...]
    #: ``(accessor position, dx - dx0, dy - dy0)`` per tap slice
    reads: tuple[tuple[int, int, int], ...]
    consts: tuple[np.float32, ...]
    n_scratch: int
    ops: tuple[tuple[object, int, int, int], ...]
    #: value index of the kernel's result (the output's index when the
    #: last op writes there)
    result: int

    @property
    def output(self) -> int:
        return len(self.reads) + len(self.consts) + self.n_scratch


def lower(desc: KernelDescription) -> Tape:
    """The description's tape, built at its first use and memoized on it.

    Concurrent first uses may each build one; they are equal, and the
    last assignment wins.
    """
    tape = desc.tape
    if tape is None:
        tape = desc.tape = _build_tape(desc)
    return tape


def _build_tape(desc: KernelDescription) -> Tape:
    # SSA pass, in node creation order — the order the user's kernel()
    # body built the tree, children before parents, which keeps liveness
    # close to the source program's (an accumulator chain interleaves each
    # product with its sum, so one product is live at a time). Shared nodes
    # once. A value is ("r", tap) / ("c", constant) / ("v", instruction) /
    # ("n", value): a negation not emitted yet, because a sum consumes it as
    # a subtraction (x * 1 == x, x * -1 == -x and a + -x == a - x hold bit
    # for bit, so a +-1 mask tap costs one op like the floor's).
    accessors: list[Accessor] = []
    taps: dict[tuple[int, int, int], int] = {}
    instrs: list[tuple[object, tuple]] = []
    value: dict[int, tuple] = {}

    def emit(func, *args):
        if all(a[0] == "c" for a in args):
            return ("c", func(*(a[1] for a in args)))
        instrs.append((func, args))
        return ("v", len(instrs) - 1)

    def operand(node) -> tuple:
        v = value[id(node)]
        if v[0] == "n":
            v = value[id(node)] = emit(np.negative, v[1])
        return v

    def scaled(c, v) -> tuple:
        if c == 1:
            return v
        if v[0] == "n":
            return v[1]
        return emit(np.negative, v) if v[0] == "c" else ("n", v)

    for node in sorted(walk(desc.expr), key=lambda n: n.seq):
        if isinstance(node, Const):
            value[id(node)] = ("c", np.float32(node.value))
        elif isinstance(node, PixelAccess):
            acc = node.accessor
            pos = next((i for i, a in enumerate(accessors) if a is acc), None)
            if pos is None:
                pos = len(accessors)
                accessors.append(acc)
            key = (pos, node.dx, node.dy)
            value[id(node)] = ("r", taps.setdefault(key, len(taps)))
        elif isinstance(node, BinOp):
            lhs, rhs = value[id(node.lhs)], value[id(node.rhs)]
            if node.op in ("add", "sub") and rhs[0] == "n":
                func = np.subtract if node.op == "add" else np.add
                v = emit(func, operand(node.lhs), rhs[1])
            elif node.op == "add" and lhs[0] == "n":
                v = emit(np.subtract, operand(node.rhs), lhs[1])
            elif node.op == "mul" and lhs[0] == "c" and abs(lhs[1]) == 1:
                v = scaled(lhs[1], rhs)
            elif node.op == "mul" and rhs[0] == "c" and abs(rhs[1]) == 1:
                v = scaled(rhs[1], lhs)
            else:
                v = emit(_BINARY[node.op], operand(node.lhs),
                         operand(node.rhs))
            value[id(node)] = v
        elif isinstance(node, UnOp):
            v = operand(node.operand)
            if node.op == "rsqrt":
                v = emit(np.divide, ("c", _ONE), emit(np.sqrt, v))
            elif node.op == "rcp":
                v = emit(np.divide, ("c", _ONE), v)
            else:
                v = emit(_UNARY[node.op], v)
            value[id(node)] = v
        else:
            raise TypeError(f"cannot evaluate {node!r}")
    root = operand(desc.expr)

    hulls = []
    for pos in range(len(accessors)):
        ds = [(dx, dy) for p, dx, dy in taps if p == pos]
        hulls.append((min(d[0] for d in ds), max(d[0] for d in ds),
                      min(d[1] for d in ds), max(d[1] for d in ds)))
    reads = tuple(
        (p, dx - hulls[p][0], dy - hulls[p][2]) for p, dx, dy in taps
    )

    # Slot pass: an instruction's result lives in a scratch slot until its
    # last use; an op whose operand dies there writes over it in place.
    last_use = {}
    for i, (_, args) in enumerate(instrs):
        for a in args:
            if a[0] == "v":
                last_use[a[1]] = i
    slot_of: dict[int, Optional[int]] = {}
    free: list[int] = []
    n_scratch = 0
    for i, (_, args) in enumerate(instrs):
        dying = []
        for a in args:
            if a[0] == "v" and last_use[a[1]] == i and slot_of[a[1]] not in dying:
                dying.append(slot_of[a[1]])
        if i == len(instrs) - 1:
            out = None  # the root writes the output
        elif dying:
            out = dying.pop(0)
        elif free:
            out = free.pop()
        else:
            out, n_scratch = n_scratch, n_scratch + 1
        free.extend(dying)
        slot_of[i] = out

    consts = [a[1] for _, args in instrs for a in args if a[0] == "c"]
    base = len(taps) + len(consts)
    output = base + n_scratch
    const_refs = iter(range(len(taps), base))

    def ref(a) -> int:
        kind, x = a
        if kind == "r":
            return x
        if kind == "c":
            return next(const_refs)
        return output if slot_of[x] is None else base + slot_of[x]

    ops = tuple(
        (func, ref(args[0]), ref(args[1]) if len(args) > 1 else -1,
         ref(("v", i)))
        for i, (func, args) in enumerate(instrs)
    )
    return Tape(
        accessors=tuple(accessors),
        hulls=tuple(hulls),
        reads=reads,
        consts=tuple(consts),
        n_scratch=n_scratch,
        ops=ops,
        result=ref(root),
    )


def _take(pool: dict, key, shape: tuple[int, ...]) -> np.ndarray:
    """A float32 buffer of ``shape`` carved from the per-call pool entry
    ``key`` (grown when a larger shape asks for it)."""
    n = math.prod(shape)
    flat = pool.get(key)
    if flat is None or flat.size < n:
        flat = pool[key] = np.empty(n, ELEMENT_DTYPE)
    return flat[:n].reshape(shape)


def window(
    src: Source,
    rect: tuple[int, int, int, int],
    view: bool,
    acc: Accessor,
    width: int,
    height: int,
):
    """The image rectangle ``rect`` = (x0, x1, y0, y1) of one input.

    A view slices the source as is; otherwise the window is staged by one
    gather through the accessor's total border mapping against the
    ``width`` x ``height`` image. Either way a window that does not lie
    inside the source buffer raises :class:`OutOfBoundsError`.
    """
    buf, ox, oy = src
    x0, x1, y0, y1 = rect
    bh, bw = tuple(buf.shape)[-2:]
    if view:
        r0, r1, c0, c1 = y0 - oy, y1 - oy, x0 - ox, x1 - ox
        if r0 < 0 or c0 < 0 or r1 > bh or c1 > bw:
            raise OutOfBoundsError(
                f"view of {acc.image.name!r} slices rows [{r0}:{r1}) cols "
                f"[{c0}:{c1}) of a {bh}x{bw} source"
            )
        return buf[..., r0:r1, c0:c1]
    boundary = acc.boundary
    rows = window_axis(y0, y1, height, boundary, oy)
    cols = window_axis(x0, x1, width, boundary, ox)
    if rows[4] < 0 or cols[4] < 0 or rows[5] >= bh or cols[5] >= bw:
        raise OutOfBoundsError(
            f"{boundary.value} mapping of {acc.image.name!r} reads rows "
            f"[{rows[4]}, {rows[5]}] cols [{cols[4]}, {cols[5]}] of a "
            f"{bh}x{bw} source"
        )
    return gather(buf, rows, cols, float(acc.constant))


def run_tape(
    tape: Tape,
    tiles: Iterable[Tile],
    sources: list[Source],
    dest: Source,
    width: int,
    height: int,
    pool: dict,
) -> None:
    """Evaluate ``tape`` over each tile into ``dest``.

    ``sources`` holds one :data:`Source` per ``tape.accessors`` entry;
    ``dest`` is a :data:`Source` too, covering every tile. Scratch comes
    from ``pool``, a dict owned by the caller's call.
    """
    out, ox, oy = dest
    lead = tuple(out.shape)[:-2]
    for x0, x1, y0, y1, view in tiles:
        th, tw = y1 - y0, x1 - x0
        wins = [
            window(src, (x0 + dx0, x1 + dx1, y0 + dy0, y1 + dy1),
                   view, acc, width, height)
            for src, acc, (dx0, dx1, dy0, dy1)
            in zip(sources, tape.accessors, tape.hulls)
        ]
        vals = [wins[p][..., r:r + th, c:c + tw] for p, c, r in tape.reads]
        vals.extend(tape.consts)
        shape = (*lead, th, tw)
        vals.extend(_take(pool, k, shape) for k in range(tape.n_scratch))
        target = out[..., y0 - oy:y1 - oy, x0 - ox:x1 - ox]
        vals.append(target)
        for func, a, b, o in tape.ops:
            if b < 0:
                func(vals[a], vals[o])
            else:
                func(vals[a], vals[b], vals[o])
        if tape.result != tape.output:
            target[...] = vals[tape.result]


def _as_source(image) -> np.ndarray:
    """An ndarray input as float32, converted once per call; duck-typed
    images (the sanitizer's canaries) pass through."""
    if isinstance(image, np.ndarray) and image.dtype != ELEMENT_DTYPE:
        return image.astype(ELEMENT_DTYPE)
    return image


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
    pad_cache: Optional[dict] = None,
    warp_width: Optional[int] = None,
) -> np.ndarray:
    """Evaluate one kernel over its full iteration space.

    ``variant`` picks the schedule (:func:`schedule`): ``"naive"`` stages
    every tile, ``"isp"`` reads views for the tiles whose halo lies inside
    the image, and ``"prepad"`` materializes each input's border once via
    :func:`repro.runtime.make_border.make_border`, then reads views of the
    padded buffer.

    Inputs may carry leading batch axes — ``(N, H, W)`` stacks evaluate
    in one call and produce an ``(N, H, W)`` output (kernel-level
    batching). ``pad_cache``, when given, lets ``prepad`` reuse padded
    buffers across calls on the same source arrays (see
    :func:`repro.runtime.make_border.padded_for`); callers that loop over
    taps/stages/requests on one image pay the gather exactly once.
    ``warp_width`` is accepted for callers that pass their device's warp
    size; host tiles are not cut at warp boundaries, so it is ignored.
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
    tiles = schedule(variant, w, h, hx, hy)
    lead = _check_inputs(desc.accessors, images)
    tape = lower(desc)
    if variant == "prepad":
        # Without a caller's cache, a local one still pads each
        # (image, pattern) once per call however many accessors share it.
        cache = pad_cache if pad_cache is not None else {}
        sources = []
        for acc in tape.accessors:
            # UNDEFINED promises every tap stays in bounds, so the apron's
            # values are unobservable — CLAMP is an in-bounds-sound stand-in
            # that keeps the gather total.
            boundary = acc.boundary
            if boundary is Boundary.UNDEFINED:
                boundary = Boundary.CLAMP
            padded = padded_for(images, acc.image.name, hx, hy, boundary,
                                float(acc.constant), cache=cache)
            sources.append((_as_source(padded), -hx, -hy))
    else:
        sources = [(_as_source(images[acc.image.name]), 0, 0)
                   for acc in tape.accessors]
    out = np.empty((*lead, h, w), dtype=ELEMENT_DTYPE)
    run_tape(tape, tiles, sources, (out, 0, 0), w, h, {})
    if trace_ctx is not None:
        tracer, parent = trace_ctx
        tracer.record_span(
            f"kernel:{desc.name}", parent, t_start, time.perf_counter(),
            variant=variant, tiles=len(tiles),
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
    pad_cache: Optional[dict] = None,
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
            desc, images, variant=variant, pad_cache=pad_cache
        )
    return images
