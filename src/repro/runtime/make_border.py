"""Total border mappings, the staged-window gather, and ``make_border``.

Every host read that may leave the image goes through one function here:
:func:`gather` fills a window of image coordinates from a source buffer
through the *total* border mapping of each axis (:func:`map_axis`). The
host executor (:mod:`repro.runtime.vectorized`) stages a tile's inputs with
it whenever the tile plus its halo crosses the image edge, and
:func:`make_border` is the same gather over the whole image plus its apron.

Paper Section I frames padding as the costly software alternative to ISP:
"the required additional memory copy ... is costly". That is true for a
*single* filter invocation — but for repeated filters on the same image, a
multi-tap window, or a multi-stage pipeline, the copy amortizes: pay one
gather to materialize the apron, then every tap of every stage reads a view
of the padded buffer. :func:`make_border` is the host-side analogue of
RustyViT's ``make_border_cpu.rs`` (SNIPPETS.md): it turns an ``(..., H, W)``
image into an ``(..., H+2hy, W+2hx)`` buffer with the border pattern
materialized, at any depth past the edge (over-wide windows included, where
``np.pad`` needs per-pattern care). Leading axes are preserved, so an
``(N, H, W)`` stack pads into ``(N, H+2hy, W+2hx)`` with one gather.

The mappings are separable, and in-image coordinates map to themselves
under every pattern, so a gather copies the in-image run of a window as one
slice and maps only its apron rows and columns.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from ..dsl.boundary import Boundary

#: The one element type every executor in this repository computes in.
#: Anything that prices a buffer (the padding cost model, the cluster
#: protocol, memory-footprint accounting) must derive its element size from
#: here instead of hardcoding ``4``.
ELEMENT_DTYPE = np.dtype(np.float32)
ELEMENT_BYTES = ELEMENT_DTYPE.itemsize


def padded_shape(
    shape: tuple[int, ...], hx: int, hy: int
) -> tuple[int, ...]:
    """Shape of the padded buffer for an ``(..., H, W)`` input."""
    if len(shape) < 2:
        raise ValueError(f"expected an (..., H, W) shape, got {shape}")
    return (*shape[:-2], shape[-2] + 2 * hy, shape[-1] + 2 * hx)


def padded_bytes(width: int, height: int, hx: int, hy: int) -> int:
    """Footprint of one padded single-image buffer, in bytes."""
    return (width + 2 * hx) * (height + 2 * hy) * ELEMENT_BYTES


def map_axis(
    coords: np.ndarray, size: int, boundary: Boundary
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Total border mapping of one axis: (mapped coordinates, validity mask
    or None).

    Vectorized analogue of :func:`repro.compiler.border.emit_axis_checks`
    with both sides checked, exact at any depth past either edge. CONSTANT
    clamps the address and flags the coordinates outside the image;
    UNDEFINED maps nothing, so a read it lets escape fails the caller's
    bounds check instead of being invented.
    """
    if boundary is Boundary.UNDEFINED:
        return coords, None
    if boundary is Boundary.CLAMP:
        return np.clip(coords, 0, size - 1), None
    if boundary is Boundary.MIRROR:
        # Triangular reflection, bit-identical to the IR lowering: floored
        # mod by the period, then reflect the upper half. A single
        # reflection per side is wrong for taps more than one image-size
        # past the edge (c=-7, size=3 -> 6 -> -1, which fancy indexing
        # silently wraps).
        r = np.mod(coords, 2 * size)
        return np.where(r < size, r, 2 * size - 1 - r), None
    if boundary is Boundary.REPEAT:
        return np.mod(coords, size), None
    if boundary is Boundary.CONSTANT:
        return np.clip(coords, 0, size - 1), (coords >= 0) & (coords < size)
    raise AssertionError(f"unhandled boundary {boundary}")


#: One window axis read through the total mapping: buffer index per window
#: position, the in-image run ``[a, b)`` of positions that map to
#: themselves, whether the positions outside it read a constant, and the
#: smallest and largest index (what a bounds check needs).
Axis = tuple[np.ndarray, int, int, bool, int, int]


@functools.lru_cache(maxsize=4096)
def window_axis(
    lo: int, hi: int, size: int, boundary: Boundary, origin: int
) -> Axis:
    """The :data:`Axis` for window coordinates ``[lo, hi)`` of an axis of
    ``size`` pixels, read from a buffer whose index 0 holds coordinate
    ``origin``. Geometry only, so it is computed once and shared (the index
    array is read-only)."""
    mapped, valid = map_axis(np.arange(lo, hi), size, boundary)
    index = mapped - origin
    index.flags.writeable = False
    n = hi - lo
    if boundary is Boundary.UNDEFINED:
        a, b = 0, n
    else:
        a = min(max(-lo, 0), n)
        b = max(min(size - lo, n), a)
    return index, a, b, valid is not None, int(index.min()), int(index.max())


def gather(
    src, rows: Axis, cols: Axis, constant: float = 0.0
) -> np.ndarray:
    """``src[..., rows, cols]`` as a new contiguous float32 buffer.

    The in-image run is one slice copy; apron columns beside it and whole
    apron rows are gathered through the mapped indices, or filled with
    ``constant`` where the pattern reads one. ``src`` only needs ``shape``
    and ``__getitem__``. The caller checks the indices against ``src``.
    """
    ys, ra, rb, const_rows = rows[:4]
    xs, ca, cb, const_cols = cols[:4]
    ny, nx = len(ys), len(xs)
    out = np.empty((*tuple(src.shape)[:-2], ny, nx), ELEMENT_DTYPE)
    if ra < rb:
        run = slice(int(ys[ra]), int(ys[ra]) + rb - ra)
        if ca < cb:
            out[..., ra:rb, ca:cb] = src[
                ..., run, int(xs[ca]) : int(xs[ca]) + cb - ca]
        for p, q in ((0, ca), (cb, nx)):
            if p < q:
                out[..., ra:rb, p:q] = (
                    constant if const_cols else src[..., run, xs[p:q]])
    for p, q in ((0, ra), (rb, ny)):
        if p < q:
            out[..., p:q, :] = (
                constant if const_rows
                else src[..., ys[p:q, None], xs[None, :]])
    return out


def make_border(
    src: np.ndarray,
    hx: int,
    hy: int,
    boundary: Boundary,
    constant: float = 0.0,
) -> np.ndarray:
    """Materialize the border into an ``(..., H+2hy, W+2hx)`` padded buffer.

    All four concrete patterns (CLAMP / MIRROR / REPEAT / CONSTANT) are
    expressible, at any half-extent — including over-wide windows where the
    apron is deeper than the image. ``hx == hy == 0`` returns the input
    itself (point operators need no apron, and the zero-copy identity is
    what lets the cost model charge nothing for them).
    """
    shape = tuple(src.shape)
    if len(shape) < 2:
        raise ValueError(f"expected an (..., H, W) image, got shape {shape}")
    if hx < 0 or hy < 0:
        raise ValueError(f"negative half-extent ({hx}, {hy})")
    if boundary is Boundary.UNDEFINED:
        raise ValueError("cannot materialize an UNDEFINED border")
    if hx == 0 and hy == 0:
        return src
    h, w = shape[-2:]
    return gather(
        src,
        window_axis(-hy, h + hy, h, boundary, 0),
        window_axis(-hx, w + hx, w, boundary, 0),
        constant,
    )


#: Key identifying one padded buffer: which image, under which pattern.
PadKey = tuple[str, str, float, int, int]


def pad_key(
    name: str, boundary: Boundary, constant: float, hx: int, hy: int
) -> PadKey:
    return (name, boundary.value, float(constant), int(hx), int(hy))


def padded_for(
    images: dict[str, np.ndarray],
    name: str,
    hx: int,
    hy: int,
    boundary: Boundary,
    constant: float = 0.0,
    cache: Optional[dict] = None,
) -> np.ndarray:
    """Padded buffer for ``images[name]``, via ``cache`` when given.

    The cache maps :func:`pad_key` to ``(source array, padded array)`` and
    is validated by *identity*: an entry is only reused while its key still
    resolves to the same source object, so a caller-owned cache shared
    across pipeline stages (or across repeated same-image requests) can
    never serve a stale apron after an image is rebound. Entries keep their
    source alive for exactly as long as the caller keeps the cache.
    """
    src = images[name]
    if cache is None:
        return make_border(src, hx, hy, boundary, constant)
    key = pad_key(name, boundary, constant, hx, hy)
    entry = cache.get(key)
    if entry is not None and entry[0] is src:
        return entry[1]
    padded = make_border(src, hx, hy, boundary, constant)
    cache[key] = (src, padded)
    return padded
