"""Vectorized host executor tests: correctness and ISP structure."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.compiler import trace_kernel
from repro.compiler.fusion import fuse_descs
from repro.dsl import Boundary
from repro.filters import PIPELINES, REFERENCES
from repro.runtime import (
    VECTORIZED_VARIANTS,
    OutOfBoundsError,
    run_fused,
    run_kernel_vectorized,
    run_pipeline_fused,
    run_pipeline_vectorized,
)
from repro.runtime.vectorized import _eval_rects, _map_axis, _variant_rects
from repro.sanitize.differential import make_chain_pipeline
from tests.conftest import make_conv_kernel

PATTERNS = [Boundary.CLAMP, Boundary.MIRROR, Boundary.REPEAT, Boundary.CONSTANT]
APPS = ["gaussian", "laplace", "bilateral", "sobel", "night"]


@pytest.fixture(scope="module")
def src96():
    return np.random.default_rng(12).random((96, 96)).astype(np.float32)


class TestAgainstReferences:
    @pytest.mark.parametrize("app", APPS)
    @pytest.mark.parametrize("boundary", PATTERNS)
    def test_isp_variant(self, app, boundary, src96):
        pipe = PIPELINES[app](96, 96, boundary, 0.3)
        res = run_pipeline_vectorized(pipe, {"inp": src96}, variant="isp")
        ref = REFERENCES[app](src96, boundary, 0.3)
        tol = 2e-4 if app in ("bilateral", "laplace") else 2e-6
        assert np.abs(res["out"] - ref).max() < tol

    @pytest.mark.parametrize("app", APPS)
    def test_naive_equals_isp(self, app, src96):
        """The two host variants compute the same function."""
        pipe = PIPELINES[app](96, 96, Boundary.MIRROR)
        a = run_pipeline_vectorized(pipe, {"inp": src96}, variant="naive")
        b = run_pipeline_vectorized(pipe, {"inp": src96}, variant="isp")
        assert np.array_equal(a["out"], b["out"])


def _isp_rects(width, height, hx, hy):
    return _variant_rects("isp", width, height, hx, hy, 32)


class TestRegionDecomposition:
    def test_nine_regions_tile_exactly(self):
        rects = _isp_rects(100, 80, 6, 6)
        assert len(rects) == 9
        covered = np.zeros((80, 100), dtype=int)
        for x0, x1, y0, y1, _ in rects:
            covered[y0:y1, x0:x1] += 1
        assert np.all(covered == 1)

    def test_body_region_is_largest_and_checkfree(self):
        rects = _isp_rects(100, 80, 6, 6)
        body = [r for r in rects if not r[4]]
        assert len(body) == 1
        areas = {(x1 - x0) * (y1 - y0) for x0, x1, y0, y1, _ in rects}
        x0, x1, y0, y1, _ = body[0]
        assert (x1 - x0) * (y1 - y0) == max(areas)

    def test_1d_extent_gives_three_regions(self):
        rects = _isp_rects(100, 80, 6, 0)
        assert len(rects) == 3
        assert all("top" not in r[4] and "bottom" not in r[4] for r in rects)

    def test_degenerate_uses_naive_region(self):
        assert _isp_rects(10, 10, 6, 6) == _variant_rects(
            "naive", 10, 10, 6, 6, 32
        ) == [(0, 10, 0, 10, frozenset({"left", "right", "top", "bottom"}))]

    def test_degenerate_kernel_falls_back(self):
        src = np.random.default_rng(3).random((10, 10)).astype(np.float32)
        desc = trace_kernel(make_conv_kernel(
            10, 10, Boundary.CLAMP, np.ones((13, 13), np.float32)))
        out = run_kernel_vectorized(desc, {"inp": src}, variant="isp")
        ref = run_kernel_vectorized(desc, {"inp": src}, variant="naive")
        assert np.array_equal(out, ref)

    def test_unknown_variant_rejected(self, src96):
        desc = trace_kernel(make_conv_kernel(
            96, 96, Boundary.CLAMP, np.ones((3, 3), np.float32)))
        with pytest.raises(ValueError, match="unknown vectorized variant"):
            run_kernel_vectorized(desc, {"inp": src96}, variant="turbo")


class TestAxisMapping:
    """_map_axis must agree with the scalar reference model."""

    @pytest.mark.parametrize("boundary", PATTERNS)
    def test_both_sides(self, boundary):
        from repro.dsl import reference_index

        size = 16
        coords = np.arange(-size, 2 * size)  # within mirror's contract
        mapped, valid = _map_axis(coords, size, boundary, True, True)
        for i, c in enumerate(coords):
            ref = reference_index(int(c), size, boundary)
            if ref is None:
                assert valid is not None and not valid[i]
            else:
                assert mapped[i] == ref

    def test_no_checks_identity(self):
        coords = np.arange(-5, 25)
        mapped, valid = _map_axis(coords, 16, Boundary.CLAMP, False, False)
        assert mapped is coords and valid is None

    def test_one_sided_clamp(self):
        coords = np.arange(-5, 25)
        lo, _ = _map_axis(coords, 16, Boundary.CLAMP, True, False)
        assert lo.min() == 0 and lo.max() == 24
        hi, _ = _map_axis(coords, 16, Boundary.CLAMP, False, True)
        assert hi.min() == -5 and hi.max() == 15


class TestInputValidation:
    """Every host variant checks its inputs against the declared images."""

    @pytest.mark.parametrize("boundary", PATTERNS)
    @pytest.mark.parametrize("variant", VECTORIZED_VARIANTS + ("fused",))
    def test_wrong_geometry_rejected(self, variant, boundary):
        # A 70x70 array bound to a 64x64 kernel must not be filtered as its
        # top-left 64x64 corner, which never applies the right and bottom
        # borders.
        pipe = PIPELINES["gaussian"](64, 64, boundary)
        big = np.zeros((70, 70), np.float32)
        with pytest.raises(ValueError, match=r"shape \(70, 70\)"):
            if variant == "fused":
                run_pipeline_fused(pipe, {"inp": big})
            else:
                run_pipeline_vectorized(pipe, {"inp": big}, variant=variant)

    def test_missing_input_rejected(self):
        desc = trace_kernel(make_conv_kernel(
            8, 8, Boundary.CLAMP, np.ones((3, 3), np.float32)))
        with pytest.raises(ValueError, match="missing input 'inp'"):
            run_kernel_vectorized(desc, {})


def _late_producer_plan():
    """A two-stage 3x3 REPEAT chain whose last tile computes its producer
    buffer from row 1 instead of row 0, so the consumer's far-side read of
    image row 0 lands on buffer row -1 — which NumPy would wrap."""
    mask = np.ones((3, 3), np.float32)
    pipe = make_chain_pipeline(16, 16, Boundary.REPEAT, [mask, mask])
    plan = fuse_descs([trace_kernel(k) for k in pipe], tile_rows=4)
    last = plan.tiles[-1]
    producer = last.steps[0]
    x0, x1, _, y1 = producer.region
    late = dataclasses.replace(
        producer,
        region=(x0, x1, 1, y1),
        subrects=tuple((a, b, max(c, 1), d, k)
                       for a, b, c, d, k in producer.subrects if d > 1),
    )
    tile = dataclasses.replace(last, steps=(late,) + last.steps[1:])
    return dataclasses.replace(plan, tiles=plan.tiles[:-1] + (tile,))


def _expect_late_producer_out_of_bounds():
    src = np.random.default_rng(0).random((16, 16)).astype(np.float32)
    with pytest.raises(OutOfBoundsError, match=r"rows \[-1"):
        run_fused(_late_producer_plan(), {"inp": src})


def _expect_nan_input_rejected():
    """The canary scan's NaN-free precondition is a plain check: a NaN
    input must not come back as a false "access escaped" violation."""
    from repro.sanitize import check_pipeline_vectorized, make_conv_pipeline

    pipe = make_conv_pipeline(8, 8, Boundary.CLAMP, np.ones((3, 3), np.float32))
    img = np.ones((8, 8), np.float32)
    img[2, 3] = np.nan
    with pytest.raises(ValueError, match="NaN-free"):
        check_pipeline_vectorized(pipe, inputs={"inp": img})


class TestBoundsCheck:
    """Reads outside a source buffer raise, also under ``python -O``."""

    def test_fused_buffer_short_of_mapped_read(self):
        _expect_late_producer_out_of_bounds()

    def test_fused_buffer_short_of_mapped_read_under_O(self):
        root = Path(__file__).resolve().parents[1]
        path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run(
            [sys.executable, "-O", "-c",
             "import sys\n"
             "if not sys.flags.optimize: sys.exit('asserts not stripped')\n"
             "from tests.test_runtime_vectorized import "
             "_expect_late_producer_out_of_bounds as check; check()"],
            cwd=root, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr

    def test_nan_input_rejected(self):
        _expect_nan_input_rejected()

    def test_nan_input_rejected_under_O(self):
        root = Path(__file__).resolve().parents[1]
        path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run(
            [sys.executable, "-O", "-c",
             "import sys\n"
             "if not sys.flags.optimize: sys.exit('asserts not stripped')\n"
             "from tests.test_runtime_vectorized import "
             "_expect_nan_input_rejected as check; check()"],
            cwd=root, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("checks", [frozenset(), frozenset({"top"})],
                             ids=["body_slice", "mapped_gather"])
    def test_source_one_row_short(self, checks):
        desc = trace_kernel(make_conv_kernel(
            16, 16, Boundary.CLAMP, np.ones((3, 3), np.float32)))
        src = np.zeros((16, 16), np.float32)
        sources = {id(desc.accessors[0]): (src[1:], 0, 1)}
        out = np.empty((14, 16), np.float32)
        with pytest.raises(OutOfBoundsError):
            _eval_rects(desc, sources, [(0, 16, 1, 15, checks)], out, 0, 1)
