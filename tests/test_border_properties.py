"""Property-based tests of the four border index mappings.

Two independent implementations of the same mathematical maps exist in the
codebase — the host's total mapping :func:`map_axis` (NumPy, used for every
staged window and every padded buffer) and the compiler's :func:`emit_axis_checks` (virtual-PTX IR,
used by the SIMT path) — and both must agree with the textbook definition of
each pattern at *any* depth past the image edge. Hypothesis drives sizes
``>= 1`` and coordinates across ``[-4*size, 5*size)``: deep enough to cross
the image more than once in either direction, which is exactly the regime
where the historical single-reflection MIRROR bug (fixed in PR 2) produced
out-of-bounds indices that NumPy fancy indexing silently wrapped.

The oracles are deliberately naive iterative loops (reflect / wrap one step
at a time) — slow, obviously correct, and entirely independent of both
implementations under test. The IR side is executed by a ~60-line scalar
interpreter over the emitted basic blocks, using the same truncated-REM /
C-division semantics as the SIMT simulator.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.border import emit_axis_checks
from repro.dsl import Boundary
from repro.ir import DataType, IRBuilder
from repro.ir.instructions import CmpOp, Instruction, Opcode, Register

from .conftest import ALL_BOUNDARIES  # noqa: F401  (documents the corpus)

# --------------------------------------------------------------------------
# Brute-force oracles: one step at a time, obviously correct.
# --------------------------------------------------------------------------


def clamp_oracle(c: int, size: int) -> int:
    return min(max(c, 0), size - 1)


def reflect_oracle(c: int, size: int) -> int:
    steps = 0
    while not 0 <= c < size:
        if c < 0:
            c = -c - 1
        else:
            c = 2 * size - 1 - c
        steps += 1
        assert steps < 10_000, "reflection oracle diverged"
    return c


def wrap_oracle(c: int, size: int) -> int:
    while c < 0:
        c += size
    while c >= size:
        c -= size
    return c


# --------------------------------------------------------------------------
# Strategies: any size >= 1, coordinates across [-4*size, 5*size).
# --------------------------------------------------------------------------


@st.composite
def axis_case(draw):
    size = draw(st.integers(min_value=1, max_value=64))
    coord = draw(st.integers(min_value=-4 * size, max_value=5 * size - 1))
    return size, coord


@st.composite
def axis_batch(draw):
    size = draw(st.integers(min_value=1, max_value=64))
    coords = draw(st.lists(
        st.integers(min_value=-4 * size, max_value=5 * size - 1),
        min_size=1, max_size=32))
    return size, coords


# --------------------------------------------------------------------------
# Layer 1: the host's total mapping, map_axis.
# --------------------------------------------------------------------------


class TestMapAxisTotal:
    """Both sides checked: the mapping must be total over the whole range."""

    @settings(deadline=None)
    @given(axis_batch())
    def test_clamp(self, case):
        size, coords = case
        mapped, valid = _map(coords, size, Boundary.CLAMP)
        assert valid is None
        self._check(mapped, coords, size, clamp_oracle)

    @settings(deadline=None)
    @given(axis_batch())
    def test_mirror(self, case):
        size, coords = case
        mapped, valid = _map(coords, size, Boundary.MIRROR)
        assert valid is None
        self._check(mapped, coords, size, reflect_oracle)

    @settings(deadline=None)
    @given(axis_batch())
    def test_repeat(self, case):
        size, coords = case
        mapped, valid = _map(coords, size, Boundary.REPEAT)
        assert valid is None
        self._check(mapped, coords, size, wrap_oracle)

    @settings(deadline=None)
    @given(axis_batch())
    def test_constant_clamps_address_and_flags_validity(self, case):
        size, coords = case
        mapped, valid = _map(coords, size, Boundary.CONSTANT)
        self._check(mapped, coords, size, clamp_oracle)
        expected_valid = [0 <= c < size for c in coords]
        assert valid.tolist() == expected_valid

    @staticmethod
    def _check(mapped, coords, size, oracle):
        assert ((mapped >= 0) & (mapped < size)).all(), (
            f"out-of-bounds mapped index: {mapped} for size {size}")
        assert mapped.tolist() == [oracle(c, size) for c in coords]


class TestWindowAxis:
    """A staged window reads each position through the total mapping, but
    copies its in-image run as one slice: the run must be exactly the
    positions the mapping leaves in place, at any window depth."""

    @settings(deadline=None)
    @given(axis_batch(), st.integers(-3, 3))
    def test_run_is_the_identity_run(self, case, origin):
        from repro.runtime.make_border import window_axis

        size, coords = case
        lo, hi = min(coords), max(coords) + 1
        for boundary, oracle in [(Boundary.CLAMP, clamp_oracle),
                                 (Boundary.MIRROR, reflect_oracle),
                                 (Boundary.REPEAT, wrap_oracle),
                                 (Boundary.CONSTANT, clamp_oracle)]:
            index, a, b, const, imin, imax = window_axis(
                lo, hi, size, boundary, origin)
            expected = [oracle(c, size) - origin for c in range(lo, hi)]
            assert index.tolist() == expected
            assert (imin, imax) == (min(expected), max(expected))
            inside = [i for i, c in enumerate(range(lo, hi)) if 0 <= c < size]
            assert list(range(a, b)) == inside
            assert const == (boundary is Boundary.CONSTANT)


def _map(coords, size, boundary):
    from repro.runtime.make_border import map_axis

    return map_axis(np.asarray(list(coords), dtype=np.int64), size, boundary)


# --------------------------------------------------------------------------
# Layer 2: the compiler's emit_axis_checks, executed by a scalar IR
# interpreter with the SIMT simulator's integer semantics.
# --------------------------------------------------------------------------


def _trunc_rem(a: int, b: int) -> int:
    """C-style (truncating) remainder — PTX rem.s32, matching gpu.simt."""
    q = abs(a) // abs(b)
    if (a >= 0) != (b >= 0):
        q = -q
    return a - q * b


_CMP = {
    CmpOp.EQ: lambda a, b: a == b,
    CmpOp.NE: lambda a, b: a != b,
    CmpOp.LT: lambda a, b: a < b,
    CmpOp.LE: lambda a, b: a <= b,
    CmpOp.GT: lambda a, b: a > b,
    CmpOp.GE: lambda a, b: a >= b,
}


def interpret(func, env: dict, max_steps: int = 10_000) -> dict:
    """Execute a straight-line-plus-loops IR function over scalar ints."""

    def val(operand):
        if isinstance(operand, Register):
            return env[operand.name]
        return operand.value

    blocks = list(func.blocks)
    index = {blk.label: i for i, blk in enumerate(blocks)}
    bi = 0
    steps = 0
    while True:
        blk = blocks[bi]
        jumped = False
        for instr in blk.instructions:
            steps += 1
            assert steps <= max_steps, "interpreter ran away (bad loop?)"
            op = instr.op
            if op is Opcode.EXIT:
                return env
            if op is Opcode.BRA:
                taken = True
                if instr.pred is not None:
                    taken = bool(env[instr.pred.name])
                    if instr.pred_negated:
                        taken = not taken
                bi = index[instr.target if taken else instr.target_else]
                jumped = True
                break
            a = val(instr.srcs[0]) if instr.srcs else None
            b2 = val(instr.srcs[1]) if len(instr.srcs) > 1 else None
            if op is Opcode.MOV:
                env[instr.dst.name] = a
            elif op is Opcode.ADD:
                env[instr.dst.name] = a + b2
            elif op is Opcode.SUB:
                env[instr.dst.name] = a - b2
            elif op is Opcode.MIN:
                env[instr.dst.name] = min(a, b2)
            elif op is Opcode.MAX:
                env[instr.dst.name] = max(a, b2)
            elif op is Opcode.REM:
                env[instr.dst.name] = _trunc_rem(a, b2)
            elif op is Opcode.SETP:
                env[instr.dst.name] = _CMP[instr.cmp](a, b2)
            elif op is Opcode.SELP:
                pred = val(instr.srcs[2])
                env[instr.dst.name] = a if pred else b2
            elif op is Opcode.AND:
                env[instr.dst.name] = bool(a) and bool(b2)
            else:  # pragma: no cover - border.py emits nothing else
                raise AssertionError(f"opcode {op} not modelled")
        if not jumped:
            bi += 1  # fall through to the next emitted block
            assert bi < len(blocks), "fell off the end of the function"


def emit_and_run(boundary, coord_value, size_value, *, check_low, check_high):
    """Build a tiny function around emit_axis_checks and interpret it."""
    b = IRBuilder("axis_harness", [])
    b.new_block("entry")
    coord = b.fresh_reg(DataType.S32, "coord")
    size = b.fresh_reg(DataType.S32, "size")
    bc = emit_axis_checks(b, coord, size, boundary,
                          check_low=check_low, check_high=check_high)
    b.exit()
    env = interpret(b.finish(),
                    {coord.name: coord_value, size.name: size_value})
    mapped = env[bc.coord.name]
    valid = None if bc.valid is None else env[bc.valid.name]
    return mapped, valid


class TestEmittedIRTotal:
    @settings(deadline=None)
    @given(axis_case())
    def test_clamp(self, case):
        size, c = case
        mapped, _ = emit_and_run(Boundary.CLAMP, c, size,
                                 check_low=True, check_high=True)
        assert mapped == clamp_oracle(c, size)

    @settings(deadline=None)
    @given(axis_case())
    def test_mirror_total_reflection(self, case):
        """The emitted rem/setp/selp closed form must equal iterated
        reflection at any depth — the exact property the PR-2 fix restored."""
        size, c = case
        mapped, _ = emit_and_run(Boundary.MIRROR, c, size,
                                 check_low=True, check_high=True)
        assert 0 <= mapped < size, f"IR mapped {c} -> {mapped} (size {size})"
        assert mapped == reflect_oracle(c, size)

    @settings(deadline=None)
    @given(axis_case())
    def test_repeat_loops(self, case):
        size, c = case
        mapped, _ = emit_and_run(Boundary.REPEAT, c, size,
                                 check_low=True, check_high=True)
        assert mapped == wrap_oracle(c, size)

    @settings(deadline=None)
    @given(axis_case())
    def test_constant_validity_predicate(self, case):
        size, c = case
        mapped, valid = emit_and_run(Boundary.CONSTANT, c, size,
                                     check_low=True, check_high=True)
        assert mapped == clamp_oracle(c, size)  # address stays loadable
        assert valid == (0 <= c < size)


class TestEmittedIRSingleSided:
    """Single-sided emission carries a precondition (the region geometry
    proves the coordinate cannot cross the unchecked side); within it, the
    cheap one-reflection forms must still match the oracle."""

    @settings(deadline=None)
    @given(axis_case())
    def test_mirror_low(self, case):
        size, c = case
        c = -abs(c) % size if size > 0 else 0  # precondition: -size < c < size
        c = c - size if c > 0 else c
        mapped, _ = emit_and_run(Boundary.MIRROR, c, size,
                                 check_low=True, check_high=False)
        assert mapped == reflect_oracle(c, size)

    @settings(deadline=None)
    @given(axis_case())
    def test_mirror_high(self, case):
        size, c = case
        c = size + (abs(c) % size)  # precondition: size <= c < 2*size
        mapped, _ = emit_and_run(Boundary.MIRROR, c, size,
                                 check_low=False, check_high=True)
        assert mapped == reflect_oracle(c, size)

    @settings(deadline=None)
    @given(axis_case())
    def test_clamp_and_repeat_sides(self, case):
        size, c = case
        low_c = min(c, size - 1)   # cannot cross the high side
        high_c = max(c, 0)         # cannot cross the low side
        for boundary, oracle in [(Boundary.CLAMP, clamp_oracle),
                                 (Boundary.REPEAT, wrap_oracle)]:
            mapped, _ = emit_and_run(boundary, low_c, size,
                                     check_low=True, check_high=False)
            assert mapped == oracle(low_c, size)
            mapped, _ = emit_and_run(boundary, high_c, size,
                                     check_low=False, check_high=True)
            assert mapped == oracle(high_c, size)


class TestImplementationsAgree:
    """Differential property: NumPy executor vs compiled IR, same answers —
    including the CONSTANT validity predicate."""

    @settings(deadline=None)
    @given(axis_case(), st.sampled_from(
        [Boundary.CLAMP, Boundary.MIRROR, Boundary.REPEAT, Boundary.CONSTANT]))
    def test_both_layers_map_identically(self, case, boundary):
        size, c = case
        ir_mapped, ir_valid = emit_and_run(boundary, c, size,
                                           check_low=True, check_high=True)
        vec_mapped, vec_valid = _map([c], size, boundary)
        assert ir_mapped == int(vec_mapped[0])
        if boundary is Boundary.CONSTANT:
            assert ir_valid == bool(vec_valid[0])


# --------------------------------------------------------------------------
# Layer 3: make_border — the materialized form of the same mappings.
# --------------------------------------------------------------------------


_PAD_ORACLES = [
    (Boundary.CLAMP, clamp_oracle),
    (Boundary.MIRROR, reflect_oracle),
    (Boundary.REPEAT, wrap_oracle),
]


@st.composite
def pad_case(draw):
    w = draw(st.integers(min_value=1, max_value=16))
    h = draw(st.integers(min_value=1, max_value=16))
    # apron up to 3x the image: well past the over-wide-window regime
    hx = draw(st.integers(min_value=0, max_value=3 * w))
    hy = draw(st.integers(min_value=0, max_value=3 * h))
    seed = draw(st.integers(0, 2**31 - 1))
    return w, h, hx, hy, seed


class TestMakeBorderMatchesOracles:
    """Every padded cell, at any apron depth, holds exactly the source pixel
    the brute-force oracle maps it to — the prepad executor's soundness rests
    on this property."""

    @settings(deadline=None, max_examples=40)
    @given(pad_case(), st.sampled_from([b for b, _ in _PAD_ORACLES]))
    def test_padded_cells_match_oracle(self, case, boundary):
        from repro.runtime.make_border import make_border

        w, h, hx, hy, seed = case
        oracle = dict(_PAD_ORACLES)[boundary]
        src = np.random.default_rng(seed).random((h, w)).astype(np.float32)
        out = make_border(src, hx, hy, boundary)
        assert out.shape == (h + 2 * hy, w + 2 * hx)
        for py in range(out.shape[0]):
            for px in range(out.shape[1]):
                sy = oracle(py - hy, h)
                sx = oracle(px - hx, w)
                assert out[py, px] == src[sy, sx], (boundary, py, px)

    @settings(deadline=None, max_examples=40)
    @given(pad_case(), st.floats(min_value=-2.0, max_value=2.0, width=32))
    def test_constant_cells(self, case, constant):
        from repro.runtime.make_border import make_border

        w, h, hx, hy, seed = case
        src = np.random.default_rng(seed).random((h, w)).astype(np.float32)
        out = make_border(src, hx, hy, Boundary.CONSTANT, constant)
        interior = out[hy:hy + h, hx:hx + w]
        assert np.array_equal(interior, src)
        mask = np.ones(out.shape, dtype=bool)
        mask[hy:hy + h, hx:hx + w] = False
        assert (out[mask] == np.float32(constant)).all()

    @settings(deadline=None, max_examples=20)
    @given(pad_case(), st.sampled_from([b for b, _ in _PAD_ORACLES]),
           st.integers(min_value=1, max_value=4))
    def test_batch_axis_pads_per_image(self, case, boundary, n):
        from repro.runtime.make_border import make_border

        w, h, hx, hy, seed = case
        stack = np.random.default_rng(seed).random((n, h, w)).astype(np.float32)
        out = make_border(stack, hx, hy, boundary)
        assert out.shape == (n, h + 2 * hy, w + 2 * hx)
        for i in range(n):
            assert np.array_equal(out[i], make_border(stack[i], hx, hy,
                                                      boundary))


def test_unchecked_axis_is_identity():
    """The Body region's whole point: no checks, untouched coordinate,
    zero emitted instructions."""
    b = IRBuilder("body", [])
    b.new_block("entry")
    coord = b.fresh_reg(DataType.S32, "coord")
    size = b.fresh_reg(DataType.S32, "size")
    bc = emit_axis_checks(b, coord, size, Boundary.MIRROR,
                          check_low=False, check_high=False)
    assert bc.coord is coord
    assert sum(len(blk.instructions) for blk in b.finish().blocks) == 0
