"""Cross-variant differential verification and shadow-OOB instrumentation.

These tests exercise the dynamic half of :mod:`repro.sanitize`: the
adversarial corpus runner (tiny images x windows wider than the image, all
four border patterns, every executor vs the pad-based reference), the deep
mirror-wrap regression that motivated the total-mapping fix, and the canary
machinery that catches coordinate escapes in the vectorized evaluator.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import Variant, trace_kernel
from repro.dsl import Boundary, Pipeline
from repro.filters.reference import correlate
from repro.runtime import run_kernel_vectorized, run_pipeline_simt
from repro.sanitize import (
    check_pipeline_simt,
    check_pipeline_vectorized,
    make_chain_pipeline,
    make_conv_pipeline,
    run_differential,
    run_pipeline_differential,
)
from repro.sanitize.shadow import _CanaryArray
from tests.conftest import ALL_BOUNDARIES, make_conv_kernel

PATTERNS = [Boundary.CLAMP, Boundary.MIRROR, Boundary.REPEAT, Boundary.CONSTANT]


def _mask(hy: int, hx: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.25, 1.0, (2 * hy + 1, 2 * hx + 1)).astype(np.float32)


class TestDifferentialHarness:
    def test_reduced_corpus_bit_exact(self):
        report = run_differential(
            sizes=(1, 2, 3),
            half_extents=(1, 2, 7),
            patterns=PATTERNS,
            simt_variants=(Variant.NAIVE, Variant.ISP),
            vectorized_variants=("naive", "isp"),
            shadow=False,
        )
        assert report.ok, report.summary()
        assert report.cases > 0 and report.comparisons > report.cases

    def test_shadow_corpus_clean(self):
        # Shadow-instrumented run: same bit-exactness, plus redzone/canary
        # checks armed on every execution.
        report = run_differential(
            sizes=(3,),
            half_extents=(2, 7),
            patterns=(Boundary.MIRROR, Boundary.REPEAT),
            simt_variants=(Variant.ISP,),
            vectorized_variants=("isp",),
            shadow=True,
        )
        assert report.ok, report.summary()


class TestPipelineDifferential:
    def test_reduced_corpus_bit_exact(self):
        report = run_pipeline_differential(
            sizes=(1, 2, 5),
            chain_extents=((1,), (2, 1), (99,)),
            patterns=PATTERNS,
            tile_shapes=((None, None), (1, None), (2, 5)),
            apps=("sobel",),
        )
        assert report.ok, report.summary() + "".join(
            f"\n  {m}" for m in report.mismatches
        )
        assert report.cases > 0 and report.comparisons > report.cases

    def test_chain_pipeline_matches_folded_reference(self):
        rng = np.random.default_rng(5)
        masks = [_mask(1, 1, seed=2), _mask(2, 2, seed=3)]
        src = rng.uniform(-1.0, 1.0, (4, 4)).astype(np.float32)
        ref = src
        for m in masks:
            ref = correlate(ref, m, Boundary.REPEAT, 0.0)
        pipe = make_chain_pipeline(4, 4, Boundary.REPEAT, masks)
        from repro.runtime import run_pipeline_vectorized

        out = run_pipeline_vectorized(pipe, {"inp": src}, variant="isp")["out"]
        assert np.array_equal(out, ref)

    def test_chain_needs_a_mask(self):
        with pytest.raises(ValueError, match="at least one mask"):
            make_chain_pipeline(4, 4, Boundary.CLAMP, [])

    def test_detects_seeded_corruption(self, monkeypatch):
        """The harness is live: a fused executor that corrupts one pixel on
        non-trivial images must surface as a recorded mismatch, not a pass."""
        import repro.sanitize.differential as diff_mod
        from repro.runtime.fused import run_pipeline_fused as real_fused

        def corrupted(pipe, inputs=None, **kwargs):
            out = real_fused(pipe, inputs, **kwargs)
            if out.shape[-1] >= 2:
                out = out.copy()
                out[..., 0, 0] += np.float32(1.0)
            return out

        monkeypatch.setattr(
            "repro.runtime.fused.run_pipeline_fused", corrupted
        )
        report = diff_mod.run_pipeline_differential(
            sizes=(3,), chain_extents=((1,),),
            patterns=(Boundary.CLAMP,),
            tile_shapes=((None, None),), apps=(),
        )
        assert not report.ok
        assert any("fused" in m.path for m in report.mismatches)


class TestMirrorDeepWrap:
    """Window far wider than the image: one reflection is not enough.

    3x3 image with half-extent 7 reaches coordinates down to -7; the old
    single-reflection mapping produced 6 (still out of bounds) and numpy's
    wrap-around made it alias pixel -1.  All executors must now agree with
    the reference bit-for-bit.
    """

    SIZE, HX = 3, 7

    def _case(self):
        rng = np.random.default_rng(20210521)
        src = rng.uniform(-1.0, 1.0, (self.SIZE, self.SIZE)).astype(np.float32)
        mask = _mask(self.HX, self.HX)
        ref = correlate(src, mask, Boundary.MIRROR, 0.0)
        return src, mask, ref

    def test_simt_isp_bit_exact(self):
        src, mask, ref = self._case()
        kernel = make_conv_kernel(self.SIZE, self.SIZE, Boundary.MIRROR, mask)
        out = run_pipeline_simt(
            Pipeline("deepwrap", [kernel]), variant=Variant.ISP,
            block=(8, 4), inputs={"inp": src},
        ).output
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("variant", ["naive", "isp"])
    def test_vectorized_bit_exact(self, variant):
        src, mask, ref = self._case()
        desc = trace_kernel(
            make_conv_kernel(self.SIZE, self.SIZE, Boundary.MIRROR, mask)
        )
        out = run_kernel_vectorized(desc, {"inp": src}, variant=variant)
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("pattern", ALL_BOUNDARIES)
    def test_all_patterns_survive_deep_windows(self, pattern):
        rng = np.random.default_rng(3)
        src = rng.uniform(-1.0, 1.0, (2, 5)).astype(np.float32)
        mask = _mask(5, 5, seed=11)
        ref = correlate(src, mask, pattern, 1.25)
        desc = trace_kernel(make_conv_kernel(5, 2, pattern, mask, 1.25))
        out = run_kernel_vectorized(desc, {"inp": src}, variant="isp")
        assert np.array_equal(out, ref), pattern


@st.composite
def adversarial_case(draw):
    width = draw(st.integers(1, 8))
    height = draw(st.integers(1, 8))
    # Half-extents beyond 2*size+1 add no new residues mod 2*size.
    hx = draw(st.integers(1, 2 * width + 1))
    hy = draw(st.integers(1, 2 * height + 1))
    pattern = draw(st.sampled_from(PATTERNS))
    constant = draw(st.floats(min_value=-1.0, max_value=1.0, width=32))
    seed = draw(st.integers(0, 2**31 - 1))
    return width, height, hx, hy, pattern, constant, seed


class TestAdversarialProperties:
    @settings(max_examples=30, deadline=None)
    @given(case=adversarial_case())
    def test_vectorized_matches_reference(self, case):
        width, height, hx, hy, pattern, constant, seed = case
        rng = np.random.default_rng(seed)
        src = rng.uniform(-1.0, 1.0, (height, width)).astype(np.float32)
        mask = rng.uniform(0.25, 1.0, (2 * hy + 1, 2 * hx + 1)).astype(np.float32)
        ref = correlate(src, mask, pattern, constant)
        desc = trace_kernel(make_conv_kernel(width, height, pattern, mask, constant))
        for variant in ("naive", "isp"):
            out = run_kernel_vectorized(desc, {"inp": src}, variant=variant)
            assert np.array_equal(out, ref), (pattern, variant)

    @settings(max_examples=8, deadline=None)
    @given(case=adversarial_case())
    def test_simt_matches_reference(self, case):
        width, height, hx, hy, pattern, constant, seed = case
        hx, hy = min(hx, 5), min(hy, 5)  # keep the simulation tractable
        rng = np.random.default_rng(seed)
        src = rng.uniform(-1.0, 1.0, (height, width)).astype(np.float32)
        mask = rng.uniform(0.25, 1.0, (2 * hy + 1, 2 * hx + 1)).astype(np.float32)
        ref = correlate(src, mask, pattern, constant)
        kernel = make_conv_kernel(width, height, pattern, mask, constant)
        out = run_pipeline_simt(
            Pipeline("adv", [kernel]), variant=Variant.ISP, block=(8, 2),
            inputs={"inp": src},
        ).output
        assert np.array_equal(out, ref), pattern


class TestCanaryMachinery:
    def test_canary_array_translates_coordinates(self):
        base = np.arange(9, dtype=np.float32).reshape(3, 3)
        arr = _CanaryArray(base, pad=4)
        assert arr.shape == (3, 3)
        # Original coordinates resolve to original pixels.
        got = arr[np.ix_(np.array([0, 2]), np.array([1, 1]))]
        assert np.array_equal(got, base[np.ix_([0, 2], [1, 1])])
        # Slices used by the Body fast path translate too.
        assert np.array_equal(arr[slice(1, 3), slice(0, 2)], base[1:3, 0:2])
        # Escaped coordinates land in the NaN ring instead of wrapping.
        ring = arr[np.ix_(np.array([-1]), np.array([0]))]
        assert np.isnan(ring).all()

    def test_clean_pipeline_has_no_violations(self):
        pipe = make_conv_pipeline(5, 5, Boundary.MIRROR, _mask(3, 3))
        rng = np.random.default_rng(1)
        inputs = {"inp": rng.random((5, 5)).astype(np.float32)}
        for variant in ("naive", "isp"):
            report = check_pipeline_vectorized(pipe, variant=variant, inputs=inputs)
            assert report.ok, report.violations
        simt = check_pipeline_simt(pipe, variant=Variant.ISP, block=(8, 4),
                                   inputs=inputs)
        assert simt.ok, simt.violations

    def test_nan_input_rejected(self):
        pipe = make_conv_pipeline(4, 4, Boundary.CLAMP, _mask(1, 1))
        poisoned = np.full((4, 4), np.nan, dtype=np.float32)
        with pytest.raises(ValueError, match="NaN-free"):
            check_pipeline_vectorized(pipe, inputs={"inp": poisoned})
