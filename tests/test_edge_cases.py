"""Edge cases and invariants across the library surface."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import Variant, compile_kernel, trace_kernel
from repro.dsl import Boundary
from repro.gpu import GTX680, LaunchConfig, Profiler
from repro.ir import (
    CmpOp,
    DataType,
    IRBuilder,
    Opcode,
    Param,
    format_instruction,
    print_function,
)
from tests.conftest import make_conv_kernel


class TestLaunchConfig:
    def test_for_image_rounds_up(self):
        cfg = LaunchConfig.for_image(100, 50, (32, 4))
        assert cfg.grid == (4, 13)
        assert cfg.threads_per_block == 128
        assert cfg.warps_per_block == 4
        assert cfg.total_blocks == 52

    def test_partial_warp_counted(self):
        cfg = LaunchConfig(grid=(1, 1), block=(20, 1))
        assert cfg.warps_per_block == 1

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            LaunchConfig(grid=(0, 1), block=(32, 1))

    @given(w=st.integers(1, 5000), h=st.integers(1, 5000),
           bx=st.sampled_from([8, 16, 32, 64]), by=st.sampled_from([1, 2, 4, 8]))
    def test_grid_covers_image(self, w, h, bx, by):
        cfg = LaunchConfig.for_image(w, h, (bx, by))
        assert cfg.grid[0] * bx >= w
        assert cfg.grid[1] * by >= h
        assert (cfg.grid[0] - 1) * bx < w
        assert (cfg.grid[1] - 1) * by < h


class TestProfilerInvariants:
    def _run_profiled(self, boundary=Boundary.REPEAT):
        from repro.gpu import GlobalMemory, cost_table_for, launch

        desc = trace_kernel(make_conv_kernel(
            32, 32, boundary, np.ones((3, 3), np.float32)))
        ck = compile_kernel(desc, variant=Variant.ISP, block=(16, 4))
        mem = GlobalMemory(1 << 16)
        bases = {"inp": mem.alloc(32 * 32 * 4), "out": mem.alloc(32 * 32 * 4)}
        prof = Profiler(cost_table_for(GTX680))
        launch(ck.func, ck.launch_config, mem, ck.param_values(bases), prof)
        return prof

    def test_thread_instructions_bounded_by_lanes(self):
        prof = self._run_profiled()
        assert prof.thread_instructions <= 32 * prof.warp_instructions
        assert prof.thread_instructions > 0

    def test_keyword_totals_match(self):
        prof = self._run_profiled()
        assert sum(prof.by_keyword.values()) == prof.warp_instructions

    def test_region_totals_match(self):
        prof = self._run_profiled()
        assert sum(prof.region_totals().values()) == prof.warp_instructions

    def test_mem_fraction_in_unit_interval(self):
        prof = self._run_profiled()
        assert 0.0 < prof.mem_issue_fraction < 1.0

    def test_block_profiles_sum_to_totals(self):
        prof = self._run_profiled()
        assert sum(b.warp_instructions for b in prof.block_profiles) == (
            prof.warp_instructions
        )
        assert sum(b.issue_cycles for b in prof.block_profiles) == pytest.approx(
            prof.issue_cycles
        )

    def test_end_wave_without_begin(self):
        with pytest.raises(RuntimeError):
            Profiler().end_wave(np.zeros((0, 0), dtype=np.int64), (),
                                np.zeros(0, dtype=np.int64))


class TestPrinterTotality:
    """Every constructible instruction must print without error."""

    def test_all_compiled_variants_print(self):
        desc = trace_kernel(make_conv_kernel(
            64, 64, Boundary.REPEAT, np.ones((3, 3), np.float32)))
        for variant in (Variant.NAIVE, Variant.ISP, Variant.SHARED,
                        Variant.SHARED_ISP):
            ck = compile_kernel(desc, variant=variant, block=(16, 4))
            text = print_function(ck.func, annotate=True)
            assert ck.func.name in text
            for instr in ck.func.instructions():
                assert format_instruction(instr)

    def test_texture_prints(self):
        desc = trace_kernel(make_conv_kernel(
            64, 64, Boundary.CLAMP, np.ones((3, 3), np.float32)))
        ck = compile_kernel(desc, variant=Variant.TEXTURE)
        text = print_function(ck.func)
        assert "tex.2d.v1.f32" in text

    def test_shared_prints(self):
        desc = trace_kernel(make_conv_kernel(
            64, 64, Boundary.CLAMP, np.ones((3, 3), np.float32)))
        ck = compile_kernel(desc, variant=Variant.SHARED, block=(16, 4))
        text = print_function(ck.func)
        assert "st.shared" in text and "ld.shared" in text and "bar.sync" in text


class TestKernelFunctionApi:
    def test_param_lookup(self):
        b = IRBuilder("k", [Param("n", DataType.S32)])
        b.new_block("entry")
        b.exit()
        f = b.finish()
        assert f.param("n").dtype is DataType.S32
        with pytest.raises(KeyError):
            f.param("missing")

    def test_entry_of_empty_function(self):
        b = IRBuilder("k", [])
        with pytest.raises(ValueError):
            _ = b.function.entry

    def test_static_size(self):
        b = IRBuilder("k", [Param("n", DataType.S32)])
        b.new_block("entry")
        n = b.ld_param("n")
        b.add(n, 1)
        b.exit()
        assert b.finish().static_size() == 3


class TestCompiledKernelApi:
    def test_param_values_complete(self):
        desc = trace_kernel(make_conv_kernel(
            64, 48, Boundary.MIRROR, np.ones((3, 3), np.float32)))
        ck = compile_kernel(desc, variant=Variant.NAIVE)
        values = ck.param_values({"inp": 1024, "out": 2048})
        assert values == {
            "inp_ptr": 1024, "inp_w": 64, "inp_h": 48,
            "out_ptr": 2048, "out_w": 64, "out_h": 48,
        }
        declared = {p.name for p in ck.func.params}
        assert set(values) == declared

    def test_name_property(self):
        desc = trace_kernel(make_conv_kernel(
            64, 64, Boundary.CLAMP, np.ones((3, 3), np.float32), name="myconv"))
        ck = compile_kernel(desc, variant=Variant.ISP)
        assert ck.name == "myconv_isp"


class TestRegisterEstimatorEdge:
    @settings(max_examples=25, deadline=None)
    @given(
        boundary=st.sampled_from([Boundary.CLAMP, Boundary.MIRROR,
                                  Boundary.REPEAT, Boundary.CONSTANT]),
        mask_size=st.sampled_from([1, 3, 5]),
    )
    def test_estimates_are_positive_and_capped(self, boundary, mask_size):
        desc = trace_kernel(make_conv_kernel(
            128, 128, boundary, np.ones((mask_size, mask_size), np.float32)))
        for variant in (Variant.NAIVE, Variant.ISP):
            ck = compile_kernel(desc, variant=variant, device=GTX680)
            est = ck.registers
            assert 0 < est.max_live <= est.estimated
            assert est.allocated <= GTX680.max_registers_per_thread
            assert est.spill_factor >= 1.0


class TestVariantEnumConsistency:
    def test_values_unique(self):
        values = [v.value for v in Variant]
        assert len(values) == len(set(values))

    def test_every_codegen_variant_compiles_gaussian(self):
        from repro.compiler import CompileError

        desc = trace_kernel(make_conv_kernel(
            64, 64, Boundary.CLAMP, np.ones((3, 3), np.float32)))
        for variant in Variant:
            if variant is Variant.ISP_MODEL:
                with pytest.raises(CompileError):
                    compile_kernel(desc, variant=variant, block=(16, 4))
                continue
            ck = compile_kernel(desc, variant=variant, block=(16, 4))
            assert ck.func.static_size() > 0


class TestSetpCmpSemantics:
    @given(a=st.integers(-100, 100), b=st.integers(-100, 100),
           cmp=st.sampled_from(list(CmpOp)))
    def test_all_comparators(self, a, b, cmp):
        from repro.gpu.simt import _CMP

        expected = {
            CmpOp.EQ: a == b, CmpOp.NE: a != b, CmpOp.LT: a < b,
            CmpOp.LE: a <= b, CmpOp.GT: a > b, CmpOp.GE: a >= b,
        }[cmp]
        av = np.array([a], dtype=np.int32)
        bv = np.array([b], dtype=np.int32)
        assert bool(_CMP[cmp](av, bv)[0]) == expected
