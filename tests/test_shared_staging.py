"""Tests for shared-memory tile staging (SHARED / SHARED_ISP variants)
and the barrier-phased SIMT execution that supports it."""

import numpy as np
import pytest

from repro.compiler import (
    CompileError,
    Variant,
    compile_kernel,
    shared_tile_bytes,
    trace_kernel,
)
from repro.dsl import Boundary, Pipeline
from repro.filters import bilateral, gaussian, laplace
from repro.filters.reference import correlate, gaussian_reference
from repro.gpu import (
    GTX680,
    VEGA64,
    GlobalMemory,
    LaunchConfig,
    compute_occupancy,
    launch,
)
from repro.gpu.simt import SimtError
from repro.ir import DataType, IRBuilder, Opcode, Param, SpecialReg
from repro.runtime import profile_kernel, run_pipeline_simt
from repro.sanitize import sanitize_compiled
from tests.conftest import make_conv_kernel

PATTERNS = [Boundary.CLAMP, Boundary.MIRROR, Boundary.REPEAT, Boundary.CONSTANT]
DEVICES = [GTX680, VEGA64]


class TestBarrierExecution:
    def _barrier_kernel(self):
        """Thread i writes tid to shared[i]; after the barrier, thread i
        reads shared[31-i] — correct only if the barrier synchronizes."""
        b = IRBuilder("swap", [
            Param("out_ptr", DataType.U32, is_pointer=True),
            Param("smem_base", DataType.U32, is_pointer=True),
        ])
        b.new_block("entry")
        out = b.ld_param("out_ptr")
        smem = b.ld_param("smem_base")
        tid = b.special(SpecialReg.TID_X)
        off = b.cvt(b.shl(tid, 2), DataType.U32)
        b.sts(b.add(smem, off, DataType.U32), tid)
        b.bar()
        rev = b.sub(b.imm(31, DataType.S32), tid)
        roff = b.cvt(b.shl(rev, 2), DataType.U32)
        v = b.lds(b.add(smem, roff, DataType.U32), DataType.S32)
        b.st(b.add(out, off, DataType.U32), v)
        b.exit()
        func = b.finish()
        func.metadata["shared_bytes"] = 32 * 4
        return func

    def test_barrier_synchronizes_shared_memory(self):
        func = self._barrier_kernel()
        mem = GlobalMemory(1 << 12)
        out = mem.alloc(32 * 4)
        launch(func, LaunchConfig((1, 1), (32, 1)), mem, {"out_ptr": out})
        got = mem.read_array(out, (32,), DataType.S32)
        assert list(got) == list(range(31, -1, -1))

    def test_cross_warp_synchronization(self):
        """64 threads (2 warps): warp 0 writes, warp 1 reads after the bar —
        this fails without true phased execution."""
        b = IRBuilder("xwarp", [
            Param("out_ptr", DataType.U32, is_pointer=True),
            Param("smem_base", DataType.U32, is_pointer=True),
        ])
        b.new_block("entry")
        out = b.ld_param("out_ptr")
        smem = b.ld_param("smem_base")
        tid = b.special(SpecialReg.TID_X)
        off = b.cvt(b.shl(tid, 2), DataType.U32)
        # every thread writes tid*2 at its slot
        b.sts(b.add(smem, off, DataType.U32), b.mul(tid, 2))
        b.bar()
        # every thread reads the *other* warp's slot: (tid + 32) % 64
        other = b.rem(b.add(tid, 32), b.imm(64, DataType.S32))
        ooff = b.cvt(b.shl(other, 2), DataType.U32)
        v = b.lds(b.add(smem, ooff, DataType.U32), DataType.S32)
        b.st(b.add(out, off, DataType.U32), v)
        b.exit()
        func = b.finish()
        func.metadata["shared_bytes"] = 64 * 4
        mem = GlobalMemory(1 << 12)
        out_addr = mem.alloc(64 * 4)
        launch(func, LaunchConfig((1, 1), (64, 1)), mem, {"out_ptr": out_addr})
        got = mem.read_array(out_addr, (64,), DataType.S32)
        expected = [((t + 32) % 64) * 2 for t in range(64)]
        assert list(got) == expected

    def test_barrier_without_shared_traps(self):
        b = IRBuilder("badbar", [])
        b.new_block("entry")
        b.bar()
        b.exit()
        func = b.finish()  # no shared_bytes metadata
        mem = GlobalMemory(1 << 12)
        with pytest.raises(SimtError, match="bar.sync"):
            launch(func, LaunchConfig((1, 1), (32, 1)), mem, {})

    def test_shared_access_without_allocation_traps(self):
        b = IRBuilder("nosmem", [Param("out_ptr", DataType.U32, is_pointer=True)])
        b.new_block("entry")
        out = b.ld_param("out_ptr")
        v = b.lds(out, DataType.F32)
        del v
        b.exit()
        func = b.finish()
        mem = GlobalMemory(1 << 12)
        with pytest.raises(SimtError, match="shared-memory access"):
            launch(func, LaunchConfig((1, 1), (32, 1)), mem,
                   {"out_ptr": mem.alloc(128)})


class TestSharedVariantsCorrectness:
    @pytest.mark.parametrize("boundary", PATTERNS)
    @pytest.mark.parametrize("variant", [Variant.SHARED, Variant.SHARED_ISP])
    def test_gaussian_matches_reference(self, boundary, variant, rng):
        src = rng.random((48, 48)).astype(np.float32)
        pipe = gaussian.build_pipeline(48, 48, boundary, 0.3)
        res = run_pipeline_simt(pipe, variant=variant, block=(16, 4),
                                inputs={"inp": src})
        ref = gaussian_reference(src, boundary, 0.3)
        assert np.abs(res.output - ref).max() < 1e-6

    def test_laplace_5x5(self, rng):
        src = rng.random((48, 48)).astype(np.float32)
        pipe = laplace.build_pipeline(48, 48, Boundary.MIRROR)
        res = run_pipeline_simt(pipe, variant=Variant.SHARED_ISP, block=(16, 4),
                                inputs={"inp": src})
        from repro.filters.reference import laplace_reference

        ref = laplace_reference(src, Boundary.MIRROR)
        assert np.abs(res.output - ref).max() < 1e-4

    def test_bilateral_shared(self, rng):
        src = rng.random((32, 32)).astype(np.float32)
        pipe = bilateral.build_pipeline(32, 32, Boundary.CLAMP, radius=3)
        res = run_pipeline_simt(pipe, variant=Variant.SHARED, block=(16, 4),
                                inputs={"inp": src})
        from repro.filters.reference import bilateral_reference

        ref = bilateral_reference(src, Boundary.CLAMP, radius=3)
        assert np.abs(res.output - ref).max() < 1e-4

    @pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.name)
    @pytest.mark.parametrize("variant", [Variant.SHARED, Variant.SHARED_ISP])
    @pytest.mark.parametrize("boundary", PATTERNS)
    def test_matches_global_variants_bitexact(self, boundary, variant, device,
                                              rng):
        src = rng.random((48, 48)).astype(np.float32)
        pipe = gaussian.build_pipeline(48, 48, boundary, 0.3)
        a = run_pipeline_simt(pipe, variant=Variant.ISP, block=(16, 4),
                              device=device, inputs={"inp": src})
        s = run_pipeline_simt(pipe, variant=variant, block=(16, 4),
                              device=device, inputs={"inp": src})
        assert np.array_equal(a.output, s.output)


class TestBankPaddedRows:
    """gaussian at 60x60 with block 30x4 stages 32-element rows: a warp32
    part pads each to 33 (768 -> 792 B per block), a wave64 part does not.
    Every consumer of the footprint must read the padded number."""

    SIZE, BLOCK = 60, (30, 4)
    EXPECTED = {"GTX680": 33 * 6 * 4, "VEGA64": 32 * 6 * 4}

    def _desc(self):
        pipe = gaussian.build_pipeline(self.SIZE, self.SIZE, Boundary.MIRROR)
        return trace_kernel(next(iter(pipe)))

    @pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.name)
    @pytest.mark.parametrize("variant", [Variant.SHARED, Variant.SHARED_ISP])
    def test_footprint_agreement(self, variant, device):
        desc = self._desc()
        expected = self.EXPECTED[device.name]
        assert shared_tile_bytes(desc, self.BLOCK, device.warp_size) == expected
        ck = compile_kernel(desc, variant=variant, block=self.BLOCK,
                            device=device)
        # metadata is what the launcher allocates and the prover bounds.
        assert int(ck.func.metadata["shared_bytes"]) == expected
        assert sanitize_compiled(ck).ok
        prof = profile_kernel(desc, variant=variant, block=self.BLOCK,
                              device=device, use_cache=False)
        assert prof.timing(device).occupancy == compute_occupancy(
            device, self.BLOCK[0] * self.BLOCK[1], ck.registers.allocated,
            shared_bytes=expected,
        )

    @pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.name)
    @pytest.mark.parametrize("variant", [Variant.SHARED, Variant.SHARED_ISP])
    def test_padded_rows_match_isp(self, variant, device, rng):
        src = rng.random((self.SIZE, self.SIZE)).astype(np.float32)
        pipe = gaussian.build_pipeline(self.SIZE, self.SIZE, Boundary.MIRROR)
        a = run_pipeline_simt(pipe, variant=Variant.ISP, block=self.BLOCK,
                              device=device, inputs={"inp": src})
        s = run_pipeline_simt(pipe, variant=variant, block=self.BLOCK,
                              device=device, inputs={"inp": src})
        assert np.array_equal(a.output, s.output)


class TestSharedVariantStructure:
    def _desc(self, boundary=Boundary.CLAMP, size=64):
        return trace_kernel(make_conv_kernel(
            size, size, boundary, np.ones((5, 5), np.float32)))

    def test_metadata_and_tile_size(self):
        desc = self._desc()
        ck = compile_kernel(desc, variant=Variant.SHARED, block=(16, 4))
        expected = (16 + 4) * (4 + 4) * 4
        assert ck.func.metadata["shared_bytes"] == expected
        assert shared_tile_bytes(desc, (16, 4)) == expected

    def test_contains_staging_ops_and_barrier(self):
        ck = compile_kernel(self._desc(), variant=Variant.SHARED, block=(16, 4))
        ops = [i.op for i in ck.func.instructions()]
        assert Opcode.STS in ops and Opcode.LDS in ops and Opcode.BAR in ops

    def test_checks_once_per_staged_pixel_not_per_tap(self):
        """The staging economy: check count is O(tile), not O(taps x pixels)."""
        desc = self._desc(Boundary.CLAMP)
        naive = compile_kernel(desc, variant=Variant.NAIVE, block=(16, 4))
        shared = compile_kernel(desc, variant=Variant.SHARED, block=(16, 4))
        n_checks = sum(1 for i in naive.func.instructions() if i.role == "check")
        s_checks = sum(1 for i in shared.func.instructions() if i.role == "check")
        assert s_checks < n_checks / 3

    def test_shared_isp_body_staging_checkfree(self):
        ck = compile_kernel(self._desc(), variant=Variant.SHARED_ISP,
                            block=(16, 4))
        for instr in ck.func.instructions():
            if instr.region == "Body":
                assert instr.role != "check"

    def test_ragged_grid_rejected(self):
        desc = self._desc(size=60)  # 60 % 16 != 0
        with pytest.raises(CompileError, match="tile the image exactly"):
            compile_kernel(desc, variant=Variant.SHARED, block=(16, 4))

    @pytest.mark.parametrize("variant", [Variant.SHARED, Variant.SHARED_ISP])
    def test_point_operator_compiles_naive(self, variant):
        """Point operators gain nothing from staging: they collapse to
        NAIVE exactly as under ISP, so pipelines with a point stage run."""
        from repro.filters import sobel

        pipe = sobel.build_pipeline(64, 64, Boundary.CLAMP)
        mag = trace_kernel(pipe.kernels[2])
        ck = compile_kernel(mag, variant=variant)
        assert ck.variant is variant
        assert ck.effective_variant is Variant.NAIVE
        assert "shared_bytes" not in ck.func.metadata
        assert Opcode.BAR not in {i.op for i in ck.func.instructions()}

    @pytest.mark.parametrize("app", ["sobel", "night"])
    @pytest.mark.parametrize("variant", [Variant.SHARED, Variant.SHARED_ISP])
    def test_pipelines_with_point_stages_run(self, app, variant, rng):
        from repro.filters import PIPELINES, REFERENCES

        src = rng.random((32, 32)).astype(np.float32)
        pipe = PIPELINES[app](32, 32, Boundary.REPEAT)
        res = run_pipeline_simt(pipe, variant=variant, block=(16, 4),
                                inputs={"inp": src})
        ref = REFERENCES[app](src, Boundary.REPEAT, 0.0)
        assert np.abs(res.output - ref).max() < 1e-4

    def test_occupancy_accounts_for_shared(self):
        """A big tile must reduce resident blocks via the shared-mem limit."""
        no_smem = compute_occupancy(GTX680, 128, 32)
        big_tile = compute_occupancy(GTX680, 128, 32, shared_bytes=12 * 1024)
        assert big_tile.active_blocks_per_sm <= min(
            4, no_smem.active_blocks_per_sm
        )
        assert big_tile.limiter == "shared"

    def test_profiling_works_for_shared_variants(self):
        desc = self._desc()
        prof = profile_kernel(desc, variant=Variant.SHARED_ISP, block=(16, 4),
                              device=GTX680, use_cache=False)
        t = prof.timing(GTX680)
        assert t.time_us > 0

    def test_differential_random_patterns(self, rng):
        """Shared staging must agree with the reference on sparse masks."""
        coeffs = np.zeros((5, 5), np.float32)
        coeffs[0, 0] = 1.0
        coeffs[2, 2] = -0.5
        coeffs[4, 1] = 0.25
        src = rng.random((32, 32)).astype(np.float32)
        k = make_conv_kernel(32, 32, Boundary.REPEAT, coeffs)
        res = run_pipeline_simt(Pipeline("p", [k]), variant=Variant.SHARED,
                                block=(16, 4), inputs={"inp": src})
        ref = correlate(src, coeffs, Boundary.REPEAT)
        assert np.abs(res.output - ref).max() < 1e-6
