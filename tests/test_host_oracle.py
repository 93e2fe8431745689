"""Every host variant against an independent float64 oracle.

``scipy.ndimage.correlate`` computes the same correlations as the gaussian
and laplace filters in float64, with border modes that match the four
patterns. It shares no code with the executor, so a mapping or a tap that
both the executor and the in-repo references get wrong in the same way
still shows up here.

The executor accumulates ``taps`` float32 products; each rounding costs at
most 2^-24 of a partial sum no larger than sum|c| * max|x|, so the error
is below ``taps * 2^-23 * sum|c| * max|x|`` (a factor of two of slack).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.dsl import Boundary
from repro.filters import PIPELINES
from repro.runtime import (
    VECTORIZED_VARIANTS,
    run_pipeline_fused,
    run_pipeline_vectorized,
)
from repro.runtime.vectorized import TILE_COLS, TILE_ROWS, schedule

#: Written out here rather than imported, so the oracle stays independent:
#: the 3x3 binomial and the 5x5 Laplacian (24 at the centre, -1 elsewhere).
_LAPLACE = -np.ones((5, 5))
_LAPLACE[2, 2] = 24.0
MASKS = {
    "gaussian": np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]]) / 16.0,
    "laplace": _LAPLACE,
}
MODES = {
    Boundary.CLAMP: "nearest",
    Boundary.MIRROR: "reflect",
    Boundary.REPEAT: "grid-wrap",
    Boundary.CONSTANT: "constant",
}
CONSTANT = 0.3
SIZES = (1, 2, 3, 17, 64)
VARIANTS = VECTORIZED_VARIANTS + ("fused",)


def _oracle(app, boundary, src):
    mask = MASKS[app]
    src = np.asarray(src, np.float64)
    planes = src.reshape(-1, *src.shape[-2:])
    out = [ndimage.correlate(p, mask, mode=MODES[boundary], cval=CONSTANT)
           for p in planes]
    return np.stack(out).reshape(src.shape)


def _bound(app, src):
    mask = MASKS[app]
    taps = np.count_nonzero(mask)
    scale = max(float(np.abs(src).max()), CONSTANT)
    return taps * 2.0 ** -23 * np.abs(mask).sum() * scale


def _run(app, boundary, src, variant):
    height, width = src.shape[-2:]
    pipe = PIPELINES[app](width, height, boundary, CONSTANT)
    if variant == "fused":
        return run_pipeline_fused(pipe, {"inp": src})
    return run_pipeline_vectorized(pipe, {"inp": src}, variant=variant)["out"]


def _check(app, boundary, src):
    expected = _oracle(app, boundary, src)
    bound = _bound(app, src)
    for variant in VARIANTS:
        err = np.abs(_run(app, boundary, src, variant) - expected).max()
        assert err <= bound, (variant, err, bound)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("boundary", list(MODES), ids=lambda b: b.value)
@pytest.mark.parametrize("app", sorted(MASKS))
def test_matches_scipy(app, boundary, size):
    src = np.random.default_rng(size).uniform(-1, 1, (size, size))
    _check(app, boundary, src.astype(np.float32))


@pytest.mark.parametrize("boundary", list(MODES), ids=lambda b: b.value)
@pytest.mark.parametrize("app", sorted(MASKS))
def test_stacks_match_scipy(app, boundary):
    src = np.random.default_rng(7).uniform(-1, 1, (3, 17, 17))
    _check(app, boundary, src.astype(np.float32))


@pytest.mark.parametrize("boundary", list(MODES), ids=lambda b: b.value)
@pytest.mark.parametrize("app", sorted(MASKS))
def test_multi_tile_images_match_scipy(app, boundary):
    """Three host tiles each way, the last row band one pixel tall: under
    isp gaussian's centre tile reads views and every other tile is staged,
    prepad views every tile of its padded buffer, fused runs its own tiles."""
    height, width = 2 * TILE_ROWS + 1, 2 * TILE_COLS + 3
    tiles = schedule("isp", width, height, 1, 1)
    assert len(tiles) == 9 and sum(view for *_, view in tiles) == 1
    src = np.random.default_rng(11).uniform(-1, 1, (height, width))
    _check(app, boundary, src.astype(np.float32))


@settings(max_examples=25, deadline=None)
@given(size=st.integers(1, 40), boundary=st.sampled_from(list(MODES)),
       app=st.sampled_from(sorted(MASKS)), seed=st.integers(0, 2 ** 16))
def test_any_size_and_pattern(size, boundary, app, seed):
    src = np.random.default_rng(seed).uniform(-1, 1, (size, size))
    _check(app, boundary, src.astype(np.float32))
