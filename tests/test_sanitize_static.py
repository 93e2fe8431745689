"""Static bounds sanitizer: interval domain, prover, shadow memory, serve.

The headline regression here is the *demonstration* pair: the pre-fix
single-reflection Mirror lowering, re-emitted by hand, must produce a bounds
finding, while the shipped total mapping must be proven in-bounds — the
static pass would have caught the out-of-bounds Mirror bug before it ever
ran.
"""

import numpy as np
import pytest

from tests.conftest import ALL_BOUNDARIES, make_conv_kernel
from repro.compiler import CompileError, Variant, compile_kernel, trace_kernel
from repro.filters import PIPELINES
from repro.gpu import GTX680, VEGA64
from repro.gpu.memory import GlobalMemory, MemoryError_
from repro.ir import DataType, IRBuilder, Param, SpecialReg, verify
from repro.ir.instructions import CmpOp
from repro.sanitize import (
    check_pipeline_simt,
    sanitize_compiled,
    sanitize_function,
    sanitize_kernel,
)
from repro.sanitize.intervals import EMPTY, TOP, Interval, at_least, at_most, const


class TestIntervalDomain:
    def test_lattice(self):
        a, b = Interval(0, 5), Interval(3, 9)
        assert a.union(b) == Interval(0, 9)
        assert a.intersect(b) == Interval(3, 5)
        assert a.intersect(Interval(7, 9)).empty
        assert EMPTY.union(a) == a

    def test_arith(self):
        a = Interval(-2, 3)
        assert a.add(const(4)) == Interval(2, 7)
        assert a.sub(Interval(1, 2)) == Interval(-4, 2)
        assert a.mul(const(-2)) == Interval(-6, 4)
        assert a.neg() == Interval(-3, 2)
        assert a.abs_() == Interval(0, 3)
        assert Interval(3, 10).min_(const(5)) == Interval(3, 5)
        assert Interval(3, 10).max_(const(5)) == Interval(5, 10)

    def test_shifts(self):
        assert Interval(-3, 5).shl(const(2)) == Interval(-12, 20)
        assert Interval(-5, 5).shr(const(1)) == Interval(-3, 2)  # floor
        assert TOP.shl(const(2)) == TOP

    def test_rem_trunc_matches_concrete(self):
        """The abstract remainder must contain every concrete C-style result."""
        trunc_rem = lambda x, d: int(np.fmod(x, d)) if d else 0
        for lo, hi in [(-7, 8), (0, 5), (-20, -3), (12, 15)]:
            for d in (3, 6, 10, -4):
                out = Interval(lo, hi).rem_trunc(const(d))
                for x in range(lo, hi + 1):
                    assert trunc_rem(x, d) in out, (lo, hi, d, x)

    def test_rem_trunc_identity_only_when_whole_range_small(self):
        # [12, 15] % 10 must NOT collapse to the identity
        out = Interval(12, 15).rem_trunc(const(10))
        assert 2 in out and 5 in out
        # but a range strictly inside (-d, d) is untouched
        assert Interval(-3, 7).rem_trunc(const(10)) == Interval(-3, 7)
        # a divisor interval spanning zero cannot use the identity either
        out = Interval(1, 2).rem_trunc(Interval(-3, 10))
        assert 0 in out and 2 in out

    def test_div_trunc(self):
        assert Interval(-7, 8).div_trunc(const(2)) == Interval(-3, 4)
        assert Interval(5, 9).div_trunc(const(-2)) == Interval(-4, -2)


SIZE, HX = 3, 7  # window reaching 7 past a 3-pixel image


def _mirror_demo(total: bool):
    """A one-axis kernel: load ``img[mirror(tid - HX)]``, store to out.

    ``total=False`` re-emits the pre-fix single-reflection-per-side mapping;
    ``total=True`` the shipped closed-form triangular mapping.
    """
    b = IRBuilder("mirror_demo", [
        Param("img_ptr", DataType.U32, is_pointer=True),
        Param("out_ptr", DataType.U32, is_pointer=True),
        Param("size", DataType.S32),
    ])
    b.new_block("entry")
    img = b.ld_param("img_ptr")
    out = b.ld_param("out_ptr")
    size = b.ld_param("size")
    tid = b.special(SpecialReg.TID_X)
    c = b.sub(tid, HX)
    if total:
        period = b.add(size, size)
        r = b.rem(c, period)
        p = b.setp(CmpOp.LT, r, 0)
        r = b.selp(p, b.add(r, period), r)
        q = b.setp(CmpOp.GE, r, size)
        refl = b.sub(b.sub(period, b.imm(1, DataType.S32)), r)
        c = b.selp(q, refl, r)
    else:
        p = b.setp(CmpOp.LT, c, 0)
        c = b.selp(p, b.sub(b.imm(-1, DataType.S32), c), c)
        q = b.setp(CmpOp.GE, c, size)
        upper = b.sub(b.add(size, size), 1)
        c = b.selp(q, b.sub(upper, c), c)
    off = b.cvt(b.shl(c, 2), DataType.U32)
    v = b.ld(b.add(img, off, DataType.U32), DataType.F32)
    toff = b.cvt(b.shl(tid, 2), DataType.U32)
    b.st(b.add(out, toff, DataType.U32), v)
    b.exit()
    func = b.finish()
    verify(func)
    return func


def _sanitize_demo(total: bool):
    return sanitize_function(
        _mirror_demo(total),
        grid=(1, 1),
        block=(SIZE + 2 * HX, 1),
        extents={"img_ptr": SIZE * 4, "out_ptr": (SIZE + 2 * HX) * 4},
        scalars={"size": SIZE},
        variant="demo",
    )


class TestMirrorDemonstration:
    def test_prefix_single_reflection_is_flagged(self):
        """The old lowering reflects -7 to 6 and 6 to -1: out of bounds both
        ways once a tap is more than one image size past the edge.  The
        static pass must flag its load."""
        report = _sanitize_demo(total=False)
        assert not report.ok
        (finding,) = [f for f in report.findings if f.kind == "load"]
        assert "img_ptr" in finding.message

    def test_fixed_total_mapping_is_proved(self):
        report = _sanitize_demo(total=True)
        assert report.ok, report.findings
        assert report.loads_proved == 1 and report.stores_proved == 1


class TestConvCorpus:
    @pytest.mark.parametrize("boundary", ALL_BOUNDARIES)
    @pytest.mark.parametrize(
        "variant", [Variant.NAIVE, Variant.ISP, Variant.ISP_WARP]
    )
    def test_all_variants_proved(self, boundary, variant, rng):
        mask = rng.random((5, 5)).astype(np.float32)
        kernel = make_conv_kernel(48, 48, boundary, mask, constant=2.0)
        report = sanitize_kernel(trace_kernel(kernel), variant=variant)
        assert report.ok, report.findings
        assert report.loads_proved > 0 and report.stores_proved > 0

    @pytest.mark.parametrize("boundary", ALL_BOUNDARIES)
    def test_degenerate_fallback_proved(self, boundary, rng):
        """3x3 image with a 15x15 window: ISP degenerates to naive and every
        tap crosses both borders — only a *total* mapping is provable."""
        mask = rng.random((15, 15)).astype(np.float32)
        kernel = make_conv_kernel(3, 3, boundary, mask)
        report = sanitize_kernel(trace_kernel(kernel), variant=Variant.ISP)
        assert report.variant == "naive"  # degenerate fallback happened
        assert report.ok, report.findings

    def test_warp_grained_wide_block(self, rng):
        """Warp re-routing with block 64x4 forks on warp_x = tid.x >> 5; the
        refinement must flow back through the shift to prove the rerouted
        cheaper-region code."""
        mask = rng.random((3, 3)).astype(np.float32)
        kernel = make_conv_kernel(128, 128, ALL_BOUNDARIES[1], mask)
        from repro.compiler.driver import compile_kernel

        ck = compile_kernel(trace_kernel(kernel), variant=Variant.ISP_WARP,
                            block=(64, 4))
        assert ck.effective_variant is Variant.ISP_WARP
        report = sanitize_compiled(ck)
        assert report.ok, report.findings

    def test_contexts_follow_geometry(self, rng):
        mask = rng.random((5, 5)).astype(np.float32)
        kernel = make_conv_kernel(48, 48, ALL_BOUNDARIES[0], mask)
        naive = sanitize_kernel(trace_kernel(kernel), variant=Variant.NAIVE)
        isp = sanitize_kernel(trace_kernel(kernel), variant=Variant.ISP)
        assert naive.contexts == 1
        assert isp.contexts > 1  # one per non-empty column x row class

    @pytest.mark.parametrize("device", [GTX680, VEGA64], ids=lambda d: d.name)
    @pytest.mark.parametrize("boundary", ALL_BOUNDARIES)
    @pytest.mark.parametrize("variant", [Variant.SHARED, Variant.SHARED_ISP])
    def test_staging_variants_proved(self, variant, boundary, device, rng):
        """Staged global loads, smem stores and on-chip taps all proved,
        against the bank-padded ``smem_base`` extent of either warp width."""
        mask = rng.random((5, 5)).astype(np.float32)
        kernel = make_conv_kernel(64, 64, boundary, mask, constant=2.0)
        ck = compile_kernel(trace_kernel(kernel), variant=variant,
                            block=(32, 4), device=device)
        assert ck.effective_variant is variant
        report = sanitize_compiled(ck)
        assert report.ok, report.findings
        assert report.loads_proved > 0 and report.stores_proved > 0

    @pytest.mark.parametrize("boundary", ALL_BOUNDARIES)
    def test_over_wide_staging_window_proved(self, boundary):
        """bilateral's 13x13 window on an 8x8 image: every staged pixel
        crosses both borders, so only total mappings are provable. SHARED
        has no regions to degenerate; SHARED_ISP refuses the geometry."""
        desc = trace_kernel(
            next(iter(PIPELINES["bilateral"](8, 8, boundary, 2.0))))
        ck = compile_kernel(desc, variant=Variant.SHARED, block=(8, 4))
        report = sanitize_compiled(ck)
        assert report.ok, report.findings
        with pytest.raises(CompileError, match="degenerate"):
            compile_kernel(desc, variant=Variant.SHARED_ISP, block=(8, 4))


class TestOutOfBoundsIsCaught:
    def test_plain_overflow_load(self):
        """A load at a constant offset past its buffer must be a finding."""
        b = IRBuilder("oob", [
            Param("img_ptr", DataType.U32, is_pointer=True),
            Param("out_ptr", DataType.U32, is_pointer=True),
        ])
        b.new_block("entry")
        img = b.ld_param("img_ptr")
        out = b.ld_param("out_ptr")
        v = b.ld(b.add(img, b.imm(16, DataType.U32), DataType.U32), DataType.F32)
        tid = b.special(SpecialReg.TID_X)
        off = b.cvt(b.shl(tid, 2), DataType.U32)
        b.st(b.add(out, off, DataType.U32), v)
        b.exit()
        func = b.finish()
        verify(func)
        report = sanitize_function(
            func, grid=(1, 1), block=(4, 1),
            extents={"img_ptr": 12, "out_ptr": 16},
        )
        assert [f.kind for f in report.findings] == ["load"]


class TestShadowMemory:
    def test_cross_buffer_access_traps_only_in_shadow_mode(self):
        """An address past one buffer but inside the next is invisible to the
        whole-memory range check and must trap under shadow mode."""
        for shadow in (False, True):
            mem = GlobalMemory(1 << 12, shadow=shadow)
            a = mem.alloc(12)
            b2 = mem.alloc(12)
            mem.write_array(b2, np.full(3, 7.0, dtype=np.float32))
            stray = np.full(1, b2, dtype=np.int64)  # "a" overflowing into "b2"
            mask = np.ones(1, dtype=bool)
            if shadow:
                # b2 itself is a live allocation, so reading it is legal even
                # in shadow mode; the redzone *between* a and b2 is not.
                red = np.full(1, a + 12, dtype=np.int64)
                with pytest.raises(MemoryError_, match="shadow OOB"):
                    mem.gather(red, mask, DataType.F32)
            else:
                out = mem.gather(stray, mask, DataType.F32)
                assert out[0] == 7.0  # silent cross-buffer read

    def test_redzone_separates_allocations(self):
        mem = GlobalMemory(1 << 12, shadow=True)
        a = mem.alloc(128)
        b2 = mem.alloc(128)
        assert b2 - (a + 128) >= 128  # at least one redzone between them

    def test_shadow_pipeline_clean(self, rng):
        """A full Mirror pipeline on a tiny image with a big window runs
        clean under shadow memory (deep excursions stay inside the image)."""
        mask = rng.random((7, 7)).astype(np.float32)
        from repro.dsl.pipeline import Pipeline

        kernel = make_conv_kernel(5, 5, ALL_BOUNDARIES[1], mask)
        pipe = Pipeline("shadowed", [kernel])
        src = rng.random((5, 5)).astype(np.float32)
        report = check_pipeline_simt(pipe, variant=Variant.ISP,
                                     inputs={"inp": src})
        assert report.ok, report.violations
        assert report.images is not None and "out" in report.images


class TestServeIntegration:
    def test_plans_sanitized_on_first_build(self, rng):
        from repro.serve.engine import Request, ServeEngine

        with ServeEngine(workers=1) as eng:
            img = rng.random((48, 48)).astype(np.float32)
            resp = eng.run([Request(app="gaussian", image=img,
                                    pattern="mirror", variant="isp")])[0]
            assert resp.ok, resp.error
            stats = eng.stats()["engine"]
            assert stats["engine.plans_sanitized"] == 1
            assert stats["engine.plans_sanitize_rejected"] == 0

    def test_findings_reject_the_plan_loudly(self, rng, monkeypatch):
        """A sanitizer finding must fail the request — no silent fallback to
        another variant — and bump the rejection counter."""
        from repro.sanitize.static import SanitizeError, SanitizeReport, Finding
        from repro.serve import plan as plan_mod
        from repro.serve.engine import Request, ServeEngine

        bad = SanitizeReport(kernel="gaussian", variant="isp")
        bad.findings.append(Finding(
            kernel="gaussian", variant="isp", region=None, context="test",
            kind="load", message="injected finding",
        ))
        monkeypatch.setattr(plan_mod.ExecutionPlan, "sanitize",
                            lambda self: [bad])
        with ServeEngine(workers=1) as eng:
            img = rng.random((48, 48)).astype(np.float32)
            resp = eng.run([Request(app="gaussian", image=img,
                                    pattern="mirror", variant="isp")])[0]
            assert not resp.ok
            assert "bounds finding" in resp.error
            assert "compile:isp->naive" not in resp.fallbacks
            stats = eng.stats()["engine"]
            assert stats["engine.plans_sanitize_rejected"] == 1
