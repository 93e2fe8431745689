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
from repro.runtime.make_border import map_axis, window_axis
from repro.runtime.vectorized import TILE_COLS, TILE_ROWS, schedule, window
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


def _coverage(tiles, width, height):
    covered = np.zeros((height, width), dtype=int)
    for x0, x1, y0, y1, _ in tiles:
        covered[y0:y1, x0:x1] += 1
    return covered


class TestSchedule:
    """The variants are tile schedules under one tile shape; they differ
    only in which tiles read views."""

    @pytest.mark.parametrize("variant", VECTORIZED_VARIANTS)
    @pytest.mark.parametrize("size", [(1, 1), (64, 64), (1000, 300),
                                      (2 * TILE_COLS + 3, 2 * TILE_ROWS + 1)])
    def test_tiles_cover_image_exactly_once(self, variant, size):
        width, height = size
        tiles = schedule(variant, width, height, 2, 2)
        assert np.all(_coverage(tiles, width, height) == 1)

    @pytest.mark.parametrize("variant", VECTORIZED_VARIANTS)
    def test_64_square_is_one_tile(self, variant):
        (tile,) = schedule(variant, 64, 64, 1, 1)
        assert tile[:4] == (0, 64, 0, 64)

    def test_isp_inside_tiles_read_views(self):
        width, height = 3 * TILE_COLS, 3 * TILE_ROWS
        tiles = schedule("isp", width, height, 3, 2)
        views = [t for t in tiles if t[4]]
        assert views and len(views) < len(tiles)
        for x0, x1, y0, y1, view in tiles:
            inside = (x0 >= 3 and x1 + 3 <= width
                      and y0 >= 2 and y1 + 2 <= height)
            assert view == inside
        # A view window shares the source's memory; a staged one does not.
        desc = trace_kernel(make_conv_kernel(
            width, height, Boundary.MIRROR, np.ones((5, 7), np.float32)))
        src = np.zeros((height, width), np.float32)
        acc = desc.accessors[0]
        x0, x1, y0, y1, _ = views[0]
        rect = (x0 - 3, x1 + 3, y0 - 2, y1 + 2)
        win = window((src, 0, 0), rect, True, acc, width, height)
        assert np.shares_memory(win, src)
        staged = window((src, 0, 0), rect, False, acc, width, height)
        assert not np.shares_memory(staged, src)
        assert np.array_equal(win, staged)

    def test_naive_stages_and_prepad_views_every_tile(self):
        assert not any(t[4] for t in schedule("naive", 1000, 1000, 1, 1))
        assert all(t[4] for t in schedule("prepad", 1000, 1000, 1, 1))

    def test_degenerate_stages_every_tile(self):
        assert schedule("isp", 10, 10, 6, 6) == schedule(
            "naive", 10, 10, 6, 6) == ((0, 10, 0, 10, False),)

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
    """map_axis must agree with the scalar reference model."""

    @pytest.mark.parametrize("boundary", PATTERNS)
    def test_both_sides(self, boundary):
        from repro.dsl import reference_index

        size = 16
        coords = np.arange(-size, 2 * size)  # within mirror's contract
        mapped, valid = map_axis(coords, size, boundary)
        for i, c in enumerate(coords):
            ref = reference_index(int(c), size, boundary)
            if ref is None:
                assert valid is not None and not valid[i]
            else:
                assert mapped[i] == ref

    @pytest.mark.parametrize("boundary", PATTERNS + [Boundary.UNDEFINED])
    def test_in_image_coordinates_map_to_themselves(self, boundary):
        # What lets a view stand in for a gather inside the image.
        coords = np.arange(16)
        mapped, valid = map_axis(coords, 16, boundary)
        assert np.array_equal(mapped, coords)
        assert valid is None or valid.all()

    def test_window_axis_run_and_bounds(self):
        index, a, b, const, lo, hi = window_axis(-5, 25, 16, Boundary.CLAMP, 1)
        assert (a, b, const) == (5, 21, False)
        assert np.array_equal(index[a:b], np.arange(16) - 1)
        assert (lo, hi) == (-1, 14)
        assert not index.flags.writeable
        _, a, b, const, _, _ = window_axis(-2, 3, 2, Boundary.CONSTANT, 0)
        assert (a, b, const) == (2, 4, True)


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


def _expect_window_out_of_bounds(view=None):
    """A window one row past the top of a source that starts at image row
    1 raises, whether it is sliced as a view or gathered through the
    mapping (``None``: both)."""
    desc = trace_kernel(make_conv_kernel(
        16, 16, Boundary.CLAMP, np.ones((3, 1), np.float32)))
    src = np.zeros((16, 16), np.float32)
    for v in ([True, False] if view is None else [view]):
        with pytest.raises(OutOfBoundsError, match=r"rows \[-1"):
            window((src[1:], 0, 1), (0, 16, 0, 16), v, desc.accessors[0],
                   16, 16)


def _run_under_O(check: str) -> None:
    """Run one of this module's ``_expect_*`` checks in a ``python -O``
    child, where every assert is stripped."""
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         "import sys\n"
         "if not sys.flags.optimize: sys.exit('asserts not stripped')\n"
         f"from tests.test_runtime_vectorized import {check} as check; "
         "check()"],
        cwd=root, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


class TestBoundsCheck:
    """Reads outside a source buffer raise, also under ``python -O``."""

    def test_fused_buffer_short_of_mapped_read(self):
        _expect_late_producer_out_of_bounds()

    def test_fused_buffer_short_of_mapped_read_under_O(self):
        _run_under_O("_expect_late_producer_out_of_bounds")

    def test_nan_input_rejected(self):
        _expect_nan_input_rejected()

    def test_nan_input_rejected_under_O(self):
        _run_under_O("_expect_nan_input_rejected")

    @pytest.mark.parametrize("view", [True, False], ids=["view", "gather"])
    def test_source_one_row_short(self, view):
        _expect_window_out_of_bounds(view)

    def test_source_one_row_short_under_O(self):
        _run_under_O("_expect_window_out_of_bounds")


class TestSharedPlans:
    """Cached plans are shared across worker threads: tape scratch must be
    per call, never per plan or per tape."""

    def test_threads_running_one_plan_each_match_single_threaded(self):
        import threading
        import time

        from repro.serve.plan import build_plan

        plans = [build_plan(app, "mirror", 64, 64, variant=variant)
                 for app, variant in [("gaussian", "naive"), ("laplace", "isp"),
                                      ("sobel", "isp_warp"),
                                      ("night", "prepad"), ("night", "fused")]]
        rng = np.random.default_rng(5)
        jobs = []
        for plan in plans:
            for shape in [(64, 64), (3, 64, 64)]:
                for _ in range(2):
                    x = rng.random(shape, dtype=np.float32)
                    run = plan.execute if len(shape) == 2 else plan.execute_batch
                    jobs.append((run, x, run(x)))
        n_threads = 2 * (os.cpu_count() or 1) + 1
        deadline = time.monotonic() + 20.0
        mismatches: list[str] = []
        errors: list[BaseException] = []

        def worker(k):
            try:
                for i in range(3 * len(jobs)):
                    run, x, expected = jobs[(k + i) % len(jobs)]
                    if not np.array_equal(run(x), expected):
                        mismatches.append(f"thread {k} job {(k + i) % len(jobs)}")
                    if time.monotonic() > deadline:
                        return
            except BaseException as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert not mismatches, mismatches[:5]
