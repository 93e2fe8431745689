"""Differential property testing: three executors, one semantics.

Hypothesis generates random convolution kernels (mask shape, sparse taps,
coefficients, border pattern, image size, block shape); for each, the
SIMT-simulated compiled kernel, the vectorized host executor, and the
pad-based NumPy reference must all agree. This is the strongest correctness
net in the suite — any divergence between the compiler's border codegen, the
simulator's masked execution, and the independent references fails here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import Variant, trace_kernel
from repro.dsl import Boundary, Pipeline
from repro.filters.reference import correlate
from repro.runtime import (
    VECTORIZED_VARIANTS,
    run_kernel_vectorized,
    run_pipeline_simt,
)
from tests.conftest import make_conv_kernel

PATTERNS = [Boundary.CLAMP, Boundary.MIRROR, Boundary.REPEAT, Boundary.CONSTANT]


@st.composite
def random_case(draw):
    mask_w = draw(st.sampled_from([1, 3, 5]))
    mask_h = draw(st.sampled_from([1, 3, 5]))
    # random sparse coefficients, at least one nonzero
    coeffs = np.zeros((mask_h, mask_w), dtype=np.float32)
    n_taps = draw(st.integers(1, mask_w * mask_h))
    positions = draw(
        st.lists(
            st.tuples(st.integers(0, mask_h - 1), st.integers(0, mask_w - 1)),
            min_size=n_taps, max_size=n_taps, unique=True,
        )
    )
    for (r, c) in positions:
        coeffs[r, c] = draw(
            st.floats(min_value=-2.0, max_value=2.0, width=32)
            .filter(lambda v: v != 0.0)
        )
    if not coeffs.any():
        coeffs[mask_h // 2, mask_w // 2] = 1.0
    width = draw(st.integers(12, 40))
    height = draw(st.integers(12, 40))
    pattern = draw(st.sampled_from(PATTERNS))
    constant = draw(st.floats(min_value=-1.0, max_value=1.0, width=32))
    block = draw(st.sampled_from([(8, 4), (16, 2), (32, 1), (16, 4)]))
    variant = draw(st.sampled_from([Variant.NAIVE, Variant.ISP]))
    seed = draw(st.integers(0, 2**31 - 1))
    return coeffs, width, height, pattern, constant, block, variant, seed


class TestDifferential:
    @settings(max_examples=30, deadline=None)
    @given(case=random_case())
    def test_simt_equals_vectorized_equals_reference(self, case):
        coeffs, width, height, pattern, constant, block, variant, seed = case
        src = np.random.default_rng(seed).random((height, width)).astype(np.float32)

        kernel = make_conv_kernel(width, height, pattern, coeffs, constant)
        desc = trace_kernel(kernel)

        simt = run_pipeline_simt(
            Pipeline("diff", [kernel]), variant=variant, block=block,
            inputs={"inp": src},
        ).output
        vec = run_kernel_vectorized(desc, {"inp": src}, variant="isp")
        ref = correlate(src, coeffs, pattern, constant)

        # The three paths use the same float32 accumulation order; they must
        # agree to tight tolerance (bit-exact in the common case; padding's
        # zero-coefficient skipping matches the DSL's).
        assert np.abs(simt - ref).max() < 1e-5, (pattern, variant)
        assert np.abs(vec - ref).max() < 1e-5, pattern
        assert np.abs(simt - vec).max() < 1e-5

        # The pre-padded mode evaluates through an entirely different data
        # path (one materialized gather + check-free slicing) and must be
        # bit-exact with the checked evaluators.
        prepad = run_kernel_vectorized(desc, {"inp": src}, variant="prepad")
        assert np.array_equal(prepad, vec), pattern

    @settings(max_examples=20, deadline=None)
    @given(case=random_case(), batch_n=st.sampled_from([1, 3, 8]))
    def test_batched_execution_bitexact(self, case, batch_n):
        """An (N, H, W) stack evaluates bit-identically to N single calls,
        for every variant including prepad."""
        coeffs, width, height, pattern, constant, _, _, seed = case
        rng = np.random.default_rng(seed)
        stack = rng.random((batch_n, height, width)).astype(np.float32)
        kernel = make_conv_kernel(width, height, pattern, coeffs, constant)
        desc = trace_kernel(kernel)

        for variant in VECTORIZED_VARIANTS:
            batched = run_kernel_vectorized(
                desc, {"inp": stack}, variant=variant
            )
            assert batched.shape == (batch_n, height, width), variant
            for i in range(batch_n):
                single = run_kernel_vectorized(
                    desc, {"inp": stack[i]}, variant=variant
                )
                assert np.array_equal(batched[i], single), (variant, pattern, i)

    @settings(max_examples=10, deadline=None)
    @given(case=random_case())
    def test_naive_and_isp_bitexact(self, case):
        coeffs, width, height, pattern, constant, block, _, seed = case
        src = np.random.default_rng(seed).random((height, width)).astype(np.float32)
        kernel = make_conv_kernel(width, height, pattern, coeffs, constant)
        outs = []
        for variant in (Variant.NAIVE, Variant.ISP):
            outs.append(
                run_pipeline_simt(
                    Pipeline("diff", [kernel]), variant=variant, block=block,
                    inputs={"inp": src},
                ).output
            )
        assert np.array_equal(outs[0], outs[1]), pattern


class TestPrepadEdges:
    """Tiny images and over-wide windows: the regime np.pad-style padding
    gets wrong and the PR-2 total mappings exist for."""

    def test_prepad_tiny_images_overwide_windows(self):
        rng = np.random.default_rng(7)
        coeffs = rng.uniform(-1, 1, size=(5, 5)).astype(np.float32)
        for pattern in PATTERNS:
            for (w, h) in [(1, 1), (2, 3), (3, 3), (4, 2), (5, 5)]:
                src = rng.random((h, w)).astype(np.float32)
                kernel = make_conv_kernel(w, h, pattern, coeffs, 0.5)
                desc = trace_kernel(kernel)
                naive = run_kernel_vectorized(
                    desc, {"inp": src}, variant="naive"
                )
                prepad = run_kernel_vectorized(
                    desc, {"inp": src}, variant="prepad"
                )
                ref = correlate(src, coeffs, pattern, 0.5)
                assert np.array_equal(prepad, naive), (pattern, w, h)
                assert np.abs(prepad - ref).max() < 1e-5, (pattern, w, h)


class TestTextureDifferential:
    @settings(max_examples=10, deadline=None)
    @given(case=random_case())
    def test_texture_matches_reference(self, case):
        coeffs, width, height, pattern, constant, block, _, seed = case
        if pattern not in (Boundary.CLAMP, Boundary.CONSTANT):
            return  # texture hardware cannot express mirror/repeat
        src = np.random.default_rng(seed).random((height, width)).astype(np.float32)
        kernel = make_conv_kernel(width, height, pattern, coeffs, constant)
        out = run_pipeline_simt(
            Pipeline("diff", [kernel]), variant=Variant.TEXTURE, block=block,
            inputs={"inp": src},
        ).output
        ref = correlate(src, coeffs, pattern, constant)
        assert np.abs(out - ref).max() < 1e-5
