"""SIMT executor tests: ALU semantics, divergence, loops, exit masking."""

import dataclasses
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import GlobalMemory, LaunchConfig, Profiler, launch
from repro.gpu.simt import SimtError, _apply, _trunc_div, _trunc_rem
from repro.ir import (
    CmpOp,
    DataType,
    Immediate,
    Instruction,
    IRBuilder,
    Opcode,
    Param,
    Register,
    SpecialReg,
)

i32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)


class TestIntegerSemantics:
    """PTX integer semantics: wraparound and C-style truncating division."""

    @given(a=i32, b=i32)
    def test_trunc_div_matches_c(self, a, b):
        av = np.array([a], dtype=np.int64)
        bv = np.array([b], dtype=np.int64)
        q = _trunc_div(av, bv)[0]
        if b == 0:
            assert q == 0
        else:
            assert q == int(a / b) if abs(a / b) < 2**62 else True

    @given(a=i32, b=i32.filter(lambda x: x != 0))
    def test_div_rem_identity(self, a, b):
        av = np.array([a], dtype=np.int64)
        bv = np.array([b], dtype=np.int64)
        q = _trunc_div(av, bv)[0]
        r = _trunc_rem(av, bv)[0]
        assert q * b + r == a
        assert abs(r) < abs(b)
        # C remainder takes the dividend's sign.
        if r != 0:
            assert (r < 0) == (a < 0)

    def test_add_wraps_int32(self):
        instr = Instruction(
            Opcode.ADD, DataType.S32, Register("d", DataType.S32),
            [Register("a", DataType.S32), Register("b", DataType.S32)],
        )
        a = np.full(32, 2**31 - 1, dtype=np.int32)
        b = np.ones(32, dtype=np.int32)
        out = _apply(instr, [a, b], np.ones(32, bool))
        assert out[0] == -(2**31)


class TestFloatSemantics:
    @given(st.floats(min_value=-50.0, max_value=50.0, width=32))
    def test_ex2_matches_numpy(self, x):
        instr = Instruction(
            Opcode.EX2, DataType.F32, Register("d", DataType.F32),
            [Register("a", DataType.F32)],
        )
        a = np.full(32, x, dtype=np.float32)
        out = _apply(instr, [a], np.ones(32, bool))
        assert np.allclose(out, np.exp2(np.float32(x)), rtol=1e-6)

    def test_cvt_f32_to_s32_truncates(self):
        instr = Instruction(
            Opcode.CVT, DataType.S32, Register("d", DataType.S32),
            [Register("a", DataType.F32)], src_dtype=DataType.F32,
        )
        a = np.array([1.9, -1.9, 0.5, -0.5] * 8, dtype=np.float32)
        out = _apply(instr, [a], np.ones(32, bool))
        assert list(out[:4]) == [1, -1, 0, 0]

    def test_selp(self):
        instr = Instruction(
            Opcode.SELP, DataType.F32, Register("d", DataType.F32),
            [Register("a", DataType.F32), Register("b", DataType.F32),
             Register("p", DataType.PRED)],
        )
        a = np.full(32, 1.0, np.float32)
        b = np.full(32, 2.0, np.float32)
        p = np.zeros(32, bool)
        p[::2] = True
        out = _apply(instr, [a, b, p], np.ones(32, bool))
        assert np.all(out[::2] == 1.0) and np.all(out[1::2] == 2.0)


def _run_kernel(builder, n_threads=32, params=None, mem_bytes=1 << 14):
    func = builder.finish()
    mem = GlobalMemory(mem_bytes)
    out = mem.alloc(n_threads * 4)
    prof = Profiler()
    all_params = {"out_ptr": out}
    all_params.update(params or {})
    launch(func, LaunchConfig(grid=(1, 1), block=(n_threads, 1)), mem,
           all_params, prof)
    return mem, out, prof


def _out_param():
    return [Param("out_ptr", DataType.U32, is_pointer=True)]


def _store(b, out, tid, value, dtype=DataType.S32):
    addr = b.add(out, b.cvt(b.shl(tid, 2), DataType.U32), DataType.U32)
    b.st(addr, value, dtype)


class TestDivergence:
    def test_nested_divergence(self):
        """if (tid < 16) { if (tid < 8) v=1 else v=2 } else v=3."""
        b = IRBuilder("nested", _out_param())
        b.new_block("entry")
        out = b.ld_param("out_ptr")
        tid = b.special(SpecialReg.TID_X)
        v = b.fresh_reg(DataType.S32, "v")
        b.mov_to(v, 0)
        p = b.setp(CmpOp.LT, tid, 16)
        b.cbr(p, "lo", "hi")
        b.new_block("lo")
        p2 = b.setp(CmpOp.LT, tid, 8)
        b.cbr(p2, "lo8", "lo16")
        b.new_block("lo8")
        b.mov_to(v, 1)
        b.br("join")
        b.new_block("lo16")
        b.mov_to(v, 2)
        b.br("join")
        b.new_block("hi")
        b.mov_to(v, 3)
        b.br("join")
        b.new_block("join")
        _store(b, out, tid, v)
        b.exit()
        mem, out_addr, prof = _run_kernel(b)
        got = mem.read_array(out_addr, (32,), DataType.S32)
        expected = [1] * 8 + [2] * 8 + [3] * 16
        assert list(got) == expected
        assert prof.divergent_branches == 2

    def test_exit_inside_branch_does_not_resurrect(self):
        """Lanes that exit in one arm must stay dead after reconvergence."""
        b = IRBuilder("earlyexit", _out_param())
        b.new_block("entry")
        out = b.ld_param("out_ptr")
        tid = b.special(SpecialReg.TID_X)
        _store(b, out, tid, b.imm(5, DataType.S32))
        p = b.setp(CmpOp.LT, tid, 10)
        b.cbr(p, "quit", "cont")
        b.new_block("quit")
        b.exit()
        b.new_block("cont")
        _store(b, out, tid, b.imm(9, DataType.S32))
        b.exit()
        mem, out_addr, _ = _run_kernel(b)
        got = mem.read_array(out_addr, (32,), DataType.S32)
        assert list(got[:10]) == [5] * 10
        assert list(got[10:]) == [9] * 22

    def test_data_dependent_loop_trip_counts(self):
        """while (x > 0) x -= 3 — per-lane trip counts differ."""
        b = IRBuilder("loop3", _out_param())
        b.new_block("entry")
        out = b.ld_param("out_ptr")
        tid = b.special(SpecialReg.TID_X)
        x = b.fresh_reg(DataType.S32, "x")
        b.mov_to(x, tid)
        b.br("head")
        b.new_block("head")
        p = b.setp(CmpOp.GT, x, 0)
        b.cbr(p, "body", "done")
        b.new_block("body")
        b.mov_to(x, b.sub(x, 3))
        b.br("head")
        b.new_block("done")
        _store(b, out, tid, x)
        b.exit()
        mem, out_addr, _ = _run_kernel(b)
        got = mem.read_array(out_addr, (32,), DataType.S32)
        for t in range(32):
            expect = t
            while expect > 0:
                expect -= 3
            assert got[t] == expect

    def test_runaway_loop_trapped(self):
        b = IRBuilder("forever", _out_param())
        b.new_block("entry")
        b.br("entry2")
        b.new_block("entry2")
        b.br("entry2")
        func = b.finish()
        mem = GlobalMemory(1 << 12)
        from repro.gpu.launch import execute_block
        import repro.gpu.simt as simt_mod

        old = simt_mod.MAX_WARP_INSTRUCTIONS
        simt_mod.MAX_WARP_INSTRUCTIONS = 1000
        try:
            with pytest.raises(SimtError, match="runaway"):
                execute_block(func, LaunchConfig((1, 1), (32, 1)), (0, 0), mem,
                              {"out_ptr": 128})
        finally:
            simt_mod.MAX_WARP_INSTRUCTIONS = old

    def test_undefined_register_read_trapped(self):
        b = IRBuilder("ghostread", _out_param())
        b.new_block("entry")
        out = b.ld_param("out_ptr")
        tid = b.special(SpecialReg.TID_X)
        ghost = Register("never_written", DataType.S32)
        # Forge an instruction using an undefined register, bypassing verify.
        b.block.append(
            Instruction(Opcode.ADD, DataType.S32,
                        Register("d", DataType.S32),
                        [ghost, Immediate(1, DataType.S32)])
        )
        _store(b, out, tid, Register("d", DataType.S32))
        b.exit()
        func = b.finish()
        mem = GlobalMemory(1 << 12)
        from repro.gpu.launch import execute_block

        with pytest.raises(SimtError, match="undefined register"):
            execute_block(func, LaunchConfig((1, 1), (32, 1)), (0, 0), mem,
                          {"out_ptr": 128})


class TestSpecialRegisters:
    def test_block_and_grid_ids(self):
        b = IRBuilder("ids", _out_param())
        b.new_block("entry")
        out = b.ld_param("out_ptr")
        tid = b.special(SpecialReg.TID_X)
        ctaid = b.special(SpecialReg.CTAID_X)
        ntid = b.special(SpecialReg.NTID_X)
        gidx = b.mad(ctaid, ntid, tid)
        _store(b, out, gidx, gidx)
        b.exit()
        func = b.finish()
        mem = GlobalMemory(1 << 14)
        out_addr = mem.alloc(64 * 4)
        launch(func, LaunchConfig((2, 1), (32, 1)), mem, {"out_ptr": out_addr})
        got = mem.read_array(out_addr, (64,), DataType.S32)
        assert np.array_equal(got, np.arange(64))

    def test_2d_thread_layout(self):
        """tid.x/tid.y decomposition for a 16x2 block (one warp)."""
        b = IRBuilder("xy", _out_param())
        b.new_block("entry")
        out = b.ld_param("out_ptr")
        tx = b.special(SpecialReg.TID_X)
        ty = b.special(SpecialReg.TID_Y)
        ntx = b.special(SpecialReg.NTID_X)
        lin = b.mad(ty, ntx, tx)
        packed = b.mad(ty, b.imm(100, DataType.S32), tx)
        _store(b, out, lin, packed)
        b.exit()
        func = b.finish()
        mem = GlobalMemory(1 << 12)
        out_addr = mem.alloc(32 * 4)
        launch(func, LaunchConfig((1, 1), (16, 2)), mem, {"out_ptr": out_addr})
        got = mem.read_array(out_addr, (32,), DataType.S32)
        for ty_ in range(2):
            for tx_ in range(16):
                assert got[ty_ * 16 + tx_] == ty_ * 100 + tx_

    def test_partial_warp_lane_mask(self):
        """A 20-thread block must not write lanes 20..31."""
        b = IRBuilder("partial", _out_param())
        b.new_block("entry")
        out = b.ld_param("out_ptr")
        tid = b.special(SpecialReg.TID_X)
        _store(b, out, tid, b.imm(1, DataType.S32))
        b.exit()
        func = b.finish()
        mem = GlobalMemory(1 << 12)
        out_addr = mem.alloc(32 * 4)
        launch(func, LaunchConfig((1, 1), (20, 1)), mem, {"out_ptr": out_addr})
        got = mem.read_array(out_addr, (32,), DataType.S32)
        assert list(got[:20]) == [1] * 20
        assert list(got[20:]) == [0] * 12


class TestLaunchValidation:
    def test_missing_param_rejected(self):
        b = IRBuilder("needs", _out_param())
        b.new_block("entry")
        b.ld_param("out_ptr")
        b.exit()
        with pytest.raises(ValueError, match="missing parameters"):
            launch(b.finish(), LaunchConfig((1, 1), (32, 1)),
                   GlobalMemory(1 << 12), {})

    def test_block_outside_grid_rejected(self):
        b = IRBuilder("k", [])
        b.new_block("entry")
        b.exit()
        with pytest.raises(ValueError, match="outside grid"):
            launch(b.finish(), LaunchConfig((2, 2), (32, 1)),
                   GlobalMemory(1 << 12), {}, blocks=[((5, 0), None)])

    @settings(max_examples=20)
    @given(gx=st.integers(1, 4), gy=st.integers(1, 4))
    def test_grid_coverage(self, gx, gy):
        """Every block executes exactly once in a full launch."""
        b = IRBuilder("count", _out_param())
        b.new_block("entry")
        out = b.ld_param("out_ptr")
        tid = b.special(SpecialReg.TID_X)
        cx = b.special(SpecialReg.CTAID_X)
        cy = b.special(SpecialReg.CTAID_Y)
        ncx = b.special(SpecialReg.NCTAID_X)
        bid = b.mad(cy, ncx, cx)
        p = b.setp(CmpOp.EQ, tid, 0)
        b.cbr(p, "w", "done")
        b.new_block("w")
        _store(b, out, bid, b.imm(1, DataType.S32))
        b.br("done")
        b.new_block("done")
        b.exit()
        func = b.finish()
        mem = GlobalMemory(1 << 14)
        out_addr = mem.alloc(gx * gy * 4)
        launch(func, LaunchConfig((gx, gy), (32, 1)), mem, {"out_ptr": out_addr})
        got = mem.read_array(out_addr, (gx * gy,), DataType.S32)
        assert np.all(got == 1)


def _keywords(func, labels_and_times):
    """Static keyword counts of blocks, each weighted by its executions."""
    total = Counter()
    for label, times in labels_and_times:
        for instr in func.block(label).instructions:
            total[instr.keyword] += times
    return total


class TestLockStepBlocks:
    """A block runs all its warps together; every count stays per warp."""

    def test_block_split_between_uniform_warps_is_no_divergence(self):
        # Warp 0 (tid < 32) takes one arm and warp 1 the other: the branch
        # splits the 64-thread block but no warp's own lanes.
        b = IRBuilder("warpsplit", _out_param())
        b.new_block("entry")
        out = b.ld_param("out_ptr")
        tid = b.special(SpecialReg.TID_X)
        v = b.fresh_reg(DataType.S32, "v")
        p = b.setp(CmpOp.LT, tid, 32)
        b.cbr(p, "low", "high")
        b.new_block("low")
        b.mov_to(v, b.mul(tid, 3))
        b.br("join")
        b.new_block("high")
        b.mov_to(v, b.max(b.sub(tid, 100), b.imm(-50, DataType.S32)))
        b.br("join")
        b.new_block("join")
        _store(b, out, tid, v)
        b.exit()
        func = b.finish()
        mem = GlobalMemory(1 << 12)
        out_addr = mem.alloc(64 * 4)
        prof = Profiler()
        launch(func, LaunchConfig((1, 1), (64, 1)), mem, {"out_ptr": out_addr},
               prof)
        got = mem.read_array(out_addr, (64,), DataType.S32)
        tids = np.arange(64)
        assert np.array_equal(got, np.where(tids < 32, 3 * tids,
                                            np.maximum(tids - 100, -50)))
        assert prof.divergent_branches == 0
        assert prof.event_totals()["branch_divergence"] == 0
        assert prof.block_profiles[0].divergences == 0
        # Each warp executed entry, its own arm, then join.
        expected = _keywords(func, [("entry", 2), ("low", 1), ("high", 1),
                                    ("join", 2)])
        assert prof.by_keyword == expected
        assert prof.warp_instructions == sum(expected.values())

    def test_register_written_only_by_another_warp_is_undefined(self):
        b = IRBuilder("halfdef", _out_param())
        b.new_block("entry")
        out = b.ld_param("out_ptr")
        tid = b.special(SpecialReg.TID_X)
        v = b.fresh_reg(DataType.S32, "v")
        p = b.setp(CmpOp.LT, tid, 32)
        b.cbr(p, "define", "join")
        b.new_block("define")
        b.mov_to(v, tid)
        b.br("join")
        b.new_block("join")
        _store(b, out, tid, v)  # warp 1 reads v, which only warp 0 wrote
        b.exit()
        with pytest.raises(SimtError, match="undefined register"):
            _run_kernel(b, n_threads=64)

    def test_watchdog_polls_count_each_warps_instructions(self):
        # Lane t spins 600 + 1500 * (t // 32) + t % 2 times: the two warps
        # run different trip counts, and lanes within a warp split on the
        # last iteration.
        b = IRBuilder("spin", _out_param())
        b.new_block("entry")
        out = b.ld_param("out_ptr")
        tid = b.special(SpecialReg.TID_X)
        trip = b.add(b.add(b.mul(b.shr(tid, 5), 1500), b.rem(tid, 2)), 600)
        i = b.fresh_reg(DataType.S32, "i")
        b.mov_to(i, 0)
        b.br("head")
        b.new_block("head")
        p = b.setp(CmpOp.LT, i, trip)
        b.cbr(p, "body", "done")
        b.new_block("body")
        b.mov_to(i, b.add(i, 1))
        b.br("head")
        b.new_block("done")
        _store(b, out, tid, i)
        b.exit()
        func = b.finish()
        mem = GlobalMemory(1 << 14)
        out_addr = mem.alloc(64 * 4)
        prof = Profiler()
        launch(func, LaunchConfig((1, 1), (64, 1)), mem, {"out_ptr": out_addr},
               prof, abort=threading.Event())
        got = mem.read_array(out_addr, (64,), DataType.S32)
        tids = np.arange(64)
        assert np.array_equal(got, 600 + 1500 * (tids // 32) + tids % 2)
        size = {blk.label: len(blk.instructions) for blk in func.blocks}
        polls = []
        for warp in range(2):
            trips = 601 + 1500 * warp  # the warp's longest-running lane
            n_w = (size["entry"] + (trips + 1) * size["head"]
                   + trips * size["body"] + size["done"])
            polls.append(n_w // 2048)
        assert polls == [1, 5]
        assert prof.event_totals()["watchdog_stall"] == sum(polls)

    def test_second_launch_neither_verifies_nor_recomputes_ipdoms(self, monkeypatch):
        import importlib

        from repro.ir import immediate_postdominators, verify

        # (``repro.gpu.launch`` the attribute is the function, not the module)
        launch_mod = importlib.import_module("repro.gpu.launch")
        simt_mod = importlib.import_module("repro.gpu.simt")

        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for mod in (launch_mod, simt_mod):
            monkeypatch.setattr(mod, "verify", counted("verify", verify),
                                raising=False)
            monkeypatch.setattr(mod, "immediate_postdominators",
                                counted("ipdoms", immediate_postdominators),
                                raising=False)
        b = IRBuilder("twice", _out_param())
        b.new_block("entry")
        out = b.ld_param("out_ptr")
        tid = b.special(SpecialReg.TID_X)
        _store(b, out, tid, tid)
        b.exit()
        func = b.finish()
        mem = GlobalMemory(1 << 12)
        out_addr = mem.alloc(32 * 4)
        launch(func, LaunchConfig((1, 1), (32, 1)), mem, {"out_ptr": out_addr})
        assert calls == {"verify": 1, "ipdoms": 1}
        launch(func, LaunchConfig((1, 1), (32, 1)), mem, {"out_ptr": out_addr})
        assert calls == {"verify": 1, "ipdoms": 1}

    def test_concurrent_first_launches_agree(self):
        # Engine workers share a function's decoded table: first launches
        # that race may both decode, and every launch must still agree.
        import sys

        b = IRBuilder("race", _out_param())
        b.new_block("entry")
        out = b.ld_param("out_ptr")
        tid = b.special(SpecialReg.TID_X)
        x = b.fresh_reg(DataType.S32, "x")
        b.mov_to(x, tid)
        b.br("head")
        b.new_block("head")
        p = b.setp(CmpOp.GT, x, 0)
        b.cbr(p, "body", "done")
        b.new_block("body")
        b.mov_to(x, b.sub(x, 5))
        b.br("head")
        b.new_block("done")
        _store(b, out, tid, x)
        b.exit()
        func = b.finish()
        results = {}

        def work(i):
            mem = GlobalMemory(1 << 12)
            out_addr = mem.alloc(64 * 4)
            prof = Profiler()
            launch(func, LaunchConfig((1, 1), (64, 1)), mem,
                   {"out_ptr": out_addr}, prof)
            results[i] = (mem.read_array(out_addr, (64,), DataType.S32),
                          prof.by_keyword, prof.event_totals())

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(switch)
        assert sorted(results) == list(range(6))
        tids = np.arange(64)
        expected = np.where(tids > 0, tids - 5 * ((tids + 4) // 5), tids)
        first = results[0]
        for got, by_keyword, events in results.values():
            assert np.array_equal(got, expected)
            assert by_keyword == first[1] and events == first[2]
        assert func.decoded is not None

    def test_cost_rates_are_multiples_of_half_a_cycle(self):
        # Per-segment issue_cycles sums are then exact in float64, whatever
        # order the segments are added in.
        from repro.gpu.cost import _BY_ARCH, CostTable

        for table in (CostTable(), *_BY_ARCH.values()):
            for field in dataclasses.fields(table):
                doubled = 2 * getattr(table, field.name)
                assert doubled == int(doubled), (table, field.name)
