"""SIMT execution engine: waves of lock-step threadblocks from a decode-once
table.

Executes virtual-ISA kernels the way an Nvidia SM does at the model level the
paper reasons about:

* a warp is ``warp_size`` lanes (32 on NVIDIA parts, 64 on AMD wavefront
  devices) executing in lock step under an active mask,
* on a divergent branch, both paths execute serially with complementary
  masks, reconverging at the *immediate post-dominator* of the branch block
  (the classic stack-based reconvergence model),
* loops (the Repeat border pattern's ``while`` re-indexing) iterate until all
  active lanes exit.

A launch runs in *waves*. :func:`repro.gpu.launch.launch` groups its blocks
by the ISP region the kernel's region switch (paper Listing 3) gives them, so
a group's blocks all run one specialized clone, and cuts each group into
waves of at most :data:`WAVE_LANES` lanes. A wave runs as one
``(blocks x warps x warp_size)`` lane vector under one reconvergence stack,
so an instruction is one NumPy operation for all its blocks; blocks that
take different paths diverge as lanes do. Everything observable stays per
warp and per block:

* a warp takes part in an instruction when any of its lanes is active, and
  it diverges at a branch only when its *own* active lanes split (a branch
  that splits the wave between uniform warps runs both paths serially and
  counts no divergence);
* memory transactions and shared-memory bank conflicts are counted warp by
  warp, once per access over every warp of the wave
  (:func:`repro.gpu.memory.warp_transactions`,
  :func:`~repro.gpu.memory.warp_bank_conflicts`), and the profiler reduces
  them by block;
* reading a register that an active warp never wrote traps, even when
  another warp of the wave wrote it (a bitmask over the wave's warps);
* the runaway limit and the abort watchdog count each warp's instructions.

A ``bar.sync`` needs no scheduling: every warp of a block reaches it at once,
and it must do so in uniform control flow, per block, as on real hardware
(``__syncthreads``). For every block with a lane in the mask, every live
lane of that block must be active. A split that keeps each block on one
side, such as the region switch, is legal.

Shared memory is one :class:`~repro.gpu.memory.SharedSlots` buffer with one
slot per block of the wave. Every block addresses its own slot from the same
``smem_base``, and each access is checked against its block's slot, as a
per-block scratchpad would be.

Each :class:`~repro.ir.function.KernelFunction` is decoded once, at its first
launch, into a :class:`DecodedKernel` stored on the function: every basic
block becomes straight-line *segments*, each ending at a ``bar.sync`` or the
block's terminator, holding tuples of shared per-opcode handlers and register
names, plus the segment's static counts by keyword, ISP region, role and
cost category. Decoding also places *kills*, which drop registers from the
wave's register file after their last use: a register whose every def and
use lies in one basic block (def first, not read by the terminator) always,
and any other register at the points where CFG liveness says it dies, while
the mask covers every live lane. The profiler is charged once per wave with
each segment's runs per block; memory accesses, divergences and watchdog
polls are charged per warp as they happen.

Lane values are NumPy vectors, so arithmetic is bit-accurate (int32
wraparound, float32 rounding). Register values are never modified in place:
a write binds a new array, so registers, immediates and special registers
share arrays freely (immediates and launch-wide special registers are
zero-stride broadcasts).
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from typing import Optional

import numpy as np

from ..ir.cfg import immediate_postdominators, live_out
from ..ir.function import KernelFunction
from ..ir.instructions import (
    CmpOp,
    Instruction,
    Opcode,
    Register,
    SpecialReg,
)
from ..ir.types import DataType
from .cost import category_of
from .memory import (GlobalMemory, SharedSlots, warp_bank_conflicts,
                     warp_transactions)
from .profiler import BlockProfile, Profiler

#: Lanes in one wave: a launch runs each region group's blocks this many
#: lanes at a time (at least one block per wave).
WAVE_LANES = 2048

#: Safety valve against runaway loops in broken kernels (per warp).
MAX_WARP_INSTRUCTIONS = 20_000_000

#: A warp polls the host abort watchdog once per this many of its own
#: instructions; each poll is a ``watchdog_stall`` event.
WATCHDOG_PERIOD = 2048


class SimtError(Exception):
    """Raised on dynamic execution errors (undefined register reads etc.)."""


class SimtAbort(SimtError):
    """Raised when a launch's abort event is set mid-execution.

    Cooperative cancellation: the serve engine sets the event when a SIMT
    execution blows its deadline, so the abandoned simulation stops burning
    CPU instead of running to completion in a zombie thread.
    """


# ---------------------------------------------------------------------------
# Scalar semantics of the ALU, vectorized over lanes. One function per
# opcode (and type where it matters), shared by the decoded handlers and by
# :func:`_apply`.
# ---------------------------------------------------------------------------


def _trunc_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C-style truncating integer division (PTX div.s32) with /0 -> 0."""
    safe_b = np.where(b == 0, 1, b)
    q = np.floor_divide(a, safe_b)
    r = a - q * safe_b
    fix = (r != 0) & ((a < 0) != (safe_b < 0))
    q = q + fix.astype(q.dtype)
    return np.where(b == 0, 0, q)


def _trunc_rem(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    safe_b = np.where(b == 0, 1, b)
    return np.where(b == 0, 0, a - _trunc_div(a, safe_b) * safe_b)


def _fdiv(a, b):
    out = a / np.where(b == 0, np.float32(np.nan), b)
    return np.where(b == 0, np.float32(np.inf) * np.sign(a), out)


def _mad(a, b, c):
    return a * b + c


def _mad_f32(a, b, c):
    # fused multiply-add in float32
    return np.float32(a) * np.float32(b) + np.float32(c)


def _cvt_rzi(dtype: np.dtype):
    def cvt(a):  # PTX cvt.rzi: round toward zero
        a = np.trunc(a)
        return np.where(np.isfinite(a), a, 0.0).astype(dtype)
    return cvt


_MOV = {dt: (lambda a, t=dt.numpy_dtype: a.astype(t, copy=False))
        for dt in DataType}
_CVT = {dt: (lambda a, t=dt.numpy_dtype: a.astype(t)) for dt in DataType}
_CVT_RZI = {dt: _cvt_rzi(dt.numpy_dtype) for dt in DataType}

_CMP = {
    CmpOp.EQ: np.equal,
    CmpOp.NE: np.not_equal,
    CmpOp.LT: np.less,
    CmpOp.LE: np.less_equal,
    CmpOp.GT: np.greater,
    CmpOp.GE: np.greater_equal,
}

_ALU = {
    Opcode.ADD: np.add,
    Opcode.SUB: np.subtract,
    Opcode.MUL: np.multiply,
    Opcode.MIN: np.minimum,
    Opcode.MAX: np.maximum,
    Opcode.ABS: np.abs,
    Opcode.NEG: np.negative,
    Opcode.AND: np.bitwise_and,
    Opcode.OR: np.bitwise_or,
    Opcode.XOR: np.bitwise_xor,
    Opcode.NOT: np.invert,
    Opcode.SHL: lambda a, b: np.left_shift(a, b & 31),
    Opcode.SHR: lambda a, b: np.right_shift(a, b & 31),
    Opcode.SELP: lambda a, b, p: np.where(p.astype(bool), a, b),
    Opcode.EX2: lambda a: np.exp2(a, dtype=np.float32),
    Opcode.LG2: lambda a: np.log2(a, dtype=np.float32),
    Opcode.RCP: lambda a: np.float32(1.0) / a,
    Opcode.SQRT: lambda a: np.sqrt(a, dtype=np.float32),
    Opcode.RSQRT: lambda a: np.float32(1.0) / np.sqrt(a, dtype=np.float32),
    Opcode.SIN: lambda a: np.sin(a, dtype=np.float32),
    Opcode.COS: lambda a: np.cos(a, dtype=np.float32),
}


def _alu_function(instr: Instruction):
    """The lane-vector function computing an ALU instruction's result."""
    op, dt = instr.op, instr.dtype
    if op is Opcode.MOV:
        return _MOV[dt]
    if op is Opcode.MAD:
        return _mad_f32 if dt is DataType.F32 else _mad
    if op is Opcode.DIV:
        return _trunc_div if dt.is_integer else _fdiv
    if op is Opcode.REM:
        return _trunc_rem if dt.is_integer else np.fmod
    if op is Opcode.SETP:
        return _CMP[instr.cmp]
    if op is Opcode.CVT:
        rzi = dt.is_integer and instr.src_dtype is DataType.F32
        return (_CVT_RZI if rzi else _CVT)[dt]
    try:
        return _ALU[op]
    except KeyError:
        raise SimtError(f"unimplemented opcode {op}") from None


def _apply(instr: Instruction, srcs: list[np.ndarray], mask: np.ndarray) -> np.ndarray:
    """Result of ALU instruction ``instr`` on every lane of ``srcs`` (the
    mask only selects which lanes a write keeps)."""
    with np.errstate(all="ignore"):
        return _alu_function(instr)(*srcs)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, slots=True)
class DecodedKernel:
    """A kernel function decoded for the wave executor.

    ``blocks`` maps each label to ``(segments, terminator)``. A segment is
    ``(segment_id, length, ops, ends_at_barrier)``; ``ops`` holds one tuple
    per instruction that does work, ``(handler, ...operands)``, with
    registers and immediates named by string keys, and a kill tuple after
    each instruction that is some register's last use. ``length`` counts
    every instruction of the segment, the closing ``bar.sync`` or terminator
    included. The terminator is ``None`` (exit), a label (unconditional
    branch), or ``(predicate, negated, target, else_target, ipdom, region)``.
    ``segment_counts[segment_id, k]`` is the segment's static count of
    ``count_keys[k]``, a ``(keyword, region, role, category)`` key.
    ``constants`` maps each immediate's key to its ``(value, numpy dtype)``.
    """

    name: str
    entry: str
    blocks: dict
    count_keys: tuple
    segment_counts: np.ndarray
    constants: dict


def decode(func: KernelFunction) -> DecodedKernel:
    """Decode ``func`` once for :class:`WaveExecutor` (no verification)."""
    ipdoms = immediate_postdominators(func)
    kills = _kill_points(func)
    keys: dict = {}
    constants: dict[str, tuple] = {}
    rows: list[dict] = []

    def operand(o) -> str:
        if isinstance(o, Register):
            return o.name
        # one string object per distinct immediate, however often it occurs
        key = sys.intern(f"#{o.value!r}.{o.dtype.value}")
        constants.setdefault(key, (o.value, o.dtype.numpy_dtype))
        return key

    blocks = {}
    for block in func.blocks:
        if not block.is_terminated:
            raise SimtError(f"{func.name}:{block.label}: block falls through "
                            "without terminator")
        block_kills = kills.get(block.label, {})
        segments = []
        ops: list[tuple] = []
        counts: dict = {}
        length = 0
        for i, instr in enumerate(block.instructions):
            key = (instr.keyword, instr.region, instr.role, category_of(instr))
            column = keys.setdefault(key, len(keys))
            counts[column] = counts.get(column, 0) + 1
            length += 1
            if instr.op is Opcode.BAR or instr.is_terminator:
                segments.append((len(rows), length, tuple(ops),
                                 instr.op is Opcode.BAR))
                rows.append(counts)
                ops, counts, length = [], {}, 0
                if instr.op is Opcode.EXIT:
                    term = None
                elif instr.op is Opcode.BRA:
                    term = instr.target if instr.pred is None else (
                        instr.pred.name, instr.pred_negated, instr.target,
                        instr.target_else, ipdoms.get(block.label),
                        instr.region,
                    )
            else:
                ops.append(_decode_op(instr, operand))
                local, dead = block_kills.get(i, ((), ()))
                if local:
                    ops.append((_h_kill, local))
                if dead:
                    ops.append((_h_kill_dead, dead))
        blocks[block.label] = (tuple(segments), term)
    segment_counts = np.zeros((len(rows), len(keys)), dtype=np.int64)
    for sid, row in enumerate(rows):
        for column, n in row.items():
            segment_counts[sid, column] = n
    return DecodedKernel(func.name, func.entry.label, blocks, tuple(keys),
                         segment_counts, constants)


def _kill_points(func: KernelFunction) -> dict:
    """``label -> {index: (local, dead)}``: the registers to drop after
    instruction ``index`` of the block, as two tuples of names.

    ``local`` registers have every def and use in this block, a def first,
    and are not read by its terminator: no other block can see them, so they
    always go. ``dead`` registers are the others that this instruction uses or
    defines last in the block and that are not live out of it; they go only
    while the mask covers every live lane (lanes parked on the stack may
    still need them).
    """
    homes: dict[str, set] = {}
    defined_first: dict[tuple, bool] = {}
    last: dict[str, dict[str, int]] = {}
    term_reads: dict[str, set] = {}
    for block in func.blocks:
        seen = last[block.label] = {}
        for i, instr in enumerate(block.instructions):
            used = [r.name for r in instr.used_registers()]
            if instr.is_terminator:
                term_reads[block.label] = set(used)
                for name in used:
                    homes.setdefault(name, set()).add(block.label)
                continue
            for name in used:
                defined_first.setdefault((block.label, name), False)
                seen[name] = i
            d = instr.defined_register()
            if d is not None:
                defined_first.setdefault((block.label, d.name), True)
                seen[d.name] = i
            for name in (*used, *(() if d is None else (d.name,))):
                homes.setdefault(name, set()).add(block.label)
    outs = live_out(func)
    points: dict = {}
    for label, seen in last.items():
        reads = term_reads.get(label, set())
        at: dict[int, tuple[list, list]] = {}
        for name, i in seen.items():
            if name in reads or name in outs[label]:
                continue
            local = len(homes[name]) == 1 and defined_first[label, name]
            at.setdefault(i, ([], []))[0 if local else 1].append(name)
        points[label] = {i: (tuple(local), tuple(dead))
                         for i, (local, dead) in at.items()}
    return points


def _decode_op(instr: Instruction, operand) -> tuple:
    op = instr.op
    dst = instr.dst.name if instr.dst is not None else None
    dst_dt = instr.dst.dtype.numpy_dtype if instr.dst is not None else None
    srcs = tuple(operand(s) for s in instr.srcs)
    if op is Opcode.MOV and instr.special is not None:
        return (_h_special, instr.special, dst, dst_dt)
    if op is Opcode.LDPARAM:
        return (_h_param, instr.param, dst, dst_dt, instr.dtype.numpy_dtype)
    if op is Opcode.LD:
        return (_h_ld, instr.region, dst, dst_dt, srcs[0], instr.dtype)
    if op is Opcode.ST:
        return (_h_st, instr.region, srcs[0], srcs[1], instr.dtype)
    if op is Opcode.LDS:
        return (_h_lds, instr.region, dst, dst_dt, srcs[0], instr.dtype)
    if op is Opcode.STS:
        return (_h_sts, instr.region, srcs[0], srcs[1], instr.dtype)
    if op is Opcode.TEX:
        return (_h_tex, instr.region, dst, dst_dt, srcs[0], srcs[1],
                instr.param, instr.tex_mode == "border",
                np.float32(instr.tex_border_value))
    handler = (_h_alu1, _h_alu2, _h_alu3)[len(srcs) - 1]
    return (handler, _alu_function(instr), dst, dst_dt, *srcs)


# ---------------------------------------------------------------------------
# Handlers: ``handler(executor, op)`` runs one instruction for the wave.
# ---------------------------------------------------------------------------


def _h_alu1(ex, op):
    try:
        a = ex.regs[op[4]]
    except KeyError as exc:
        raise ex.undefined(exc.args[0]) from None
    if ex.partial:
        ex.check_written(op[4])
    ex.write(op[2], op[3], op[1](a))


def _h_alu2(ex, op):
    regs = ex.regs
    try:
        a = regs[op[4]]
        b = regs[op[5]]
    except KeyError as exc:
        raise ex.undefined(exc.args[0]) from None
    if ex.partial:
        ex.check_written(op[4], op[5])
    ex.write(op[2], op[3], op[1](a, b))


def _h_alu3(ex, op):
    regs = ex.regs
    try:
        a = regs[op[4]]
        b = regs[op[5]]
        c = regs[op[6]]
    except KeyError as exc:
        raise ex.undefined(exc.args[0]) from None
    if ex.partial:
        ex.check_written(op[4], op[5], op[6])
    ex.write(op[2], op[3], op[1](a, b, c))


def _h_kill(ex, op):
    regs, partial = ex.regs, ex.partial
    for name in op[1]:
        del regs[name]
        if partial:
            partial.pop(name, None)


def _h_kill_dead(ex, op):
    if ex.full:
        _h_kill(ex, op)


def _h_special(ex, op):
    ex.write(op[2], op[3], ex.special[op[1]])


def _h_param(ex, op):
    value = np.array(ex.params[op[1]], dtype=op[4]).astype(op[3])
    ex.write(op[2], op[3], np.broadcast_to(value, (ex.n_lanes,)))


def _h_ld(ex, op):
    addrs = ex.read(op[4]).astype(np.int64)
    if ex.profiler is not None:
        ex.profiler.on_global_access(
            op[1], warp_transactions(addrs, ex.mask, ex.warp_size), billed=True)
    ex.write(op[2], op[3], ex.memory.gather(addrs, ex.mask, op[5]))


def _h_st(ex, op):
    addrs = ex.read(op[2]).astype(np.int64)
    vals = ex.read(op[3])
    if ex.profiler is not None:
        ex.profiler.on_global_access(
            op[1], warp_transactions(addrs, ex.mask, ex.warp_size), billed=True)
    ex.memory.scatter(addrs, vals, ex.mask, op[4])


def _h_tex(ex, op):
    """Textured 2-D load: the TMU resolves out-of-range coordinates in
    hardware (clamp-to-edge or border color), so the kernel needs no
    checks — the exact trade-off the paper's Section I describes. Its
    transactions count, but the cost table prices only the TMU issue."""
    img = op[6]
    try:
        base = int(ex.params[f"{img}_ptr"])
        width = int(ex.params[f"{img}_w"])
        height = int(ex.params[f"{img}_h"])
    except KeyError as exc:
        raise SimtError(
            f"{ex.table.name}: tex sample of {img!r} but launch lacks "
            f"parameter {exc.args[0]!r}"
        ) from None
    xs = ex.read(op[4]).astype(np.int64)
    ys = ex.read(op[5]).astype(np.int64)
    cx = np.clip(xs, 0, width - 1)
    cy = np.clip(ys, 0, height - 1)
    addrs = base + 4 * (cy * width + cx)
    if ex.profiler is not None:
        ex.profiler.on_global_access(
            op[1], warp_transactions(addrs, ex.mask, ex.warp_size), billed=False)
    vals = ex.memory.gather(addrs, ex.mask, DataType.F32)
    if op[7]:
        in_range = (xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)
        vals = np.where(in_range, vals, op[8]).astype(np.float32)
    ex.write(op[2], op[3], vals)


def _shared_access(ex, op, addr, store):
    if ex.shared is None:
        raise SimtError(
            f"{ex.table.name}: shared-memory access but the launch "
            "allocated no shared memory (kernel metadata missing "
            "'shared_bytes'?)"
        )
    addrs = ex.read(addr).astype(np.int64)
    if ex.profiler is not None:
        ex.profiler.on_shared_access(
            op[1], store=store, warps=ex.warp_any,
            conflicts=warp_bank_conflicts(addrs, ex.mask, ex.warp_size))
    return addrs


def _h_lds(ex, op):
    addrs = _shared_access(ex, op, op[4], store=False)
    ex.write(op[2], op[3], ex.shared.gather(addrs, ex.mask, op[5]))


def _h_sts(ex, op):
    addrs = _shared_access(ex, op, op[2], store=True)
    ex.shared.scatter(addrs, ex.read(op[3]), ex.mask, op[4])


# ---------------------------------------------------------------------------
# The wave executor
# ---------------------------------------------------------------------------


class WaveExecutor:
    """Runs the threadblocks of one launch in waves, each wave one lock-step
    lane vector.

    A block's lanes are its threads linearized x-major and split into warps
    of ``warp_size`` (a 32x4 block holds 4 warps of one row each on a warp32
    device); a wave lays its blocks' lanes out block after block. The
    executor is per launch; :meth:`run` executes one wave of at most
    :attr:`blocks_per_wave` blocks.
    """

    def __init__(
        self,
        table: DecodedKernel,
        block: tuple[int, int],
        grid: tuple[int, int],
        warp_size: int,
        memory: GlobalMemory,
        profiler: Optional[Profiler] = None,
        abort: Optional[threading.Event] = None,
        shared_bytes: int = 0,
    ):
        self.table = table
        self.memory = memory
        self.profiler = profiler
        self.abort = abort
        self.warp_size = warp_size
        self.block = block
        self.grid = grid
        self.shared_bytes = shared_bytes
        bx, by = block
        self.n_threads = bx * by
        self.block_warps = -(-self.n_threads // warp_size)
        self.block_lanes = self.block_warps * warp_size
        self.blocks_per_wave = max(1, WAVE_LANES // self.block_lanes)
        self._layouts: dict[int, tuple] = {}

    def _layout(self, n_blocks: int) -> tuple:
        """Lane mask, special registers, immediates and zeros of a wave of
        ``n_blocks`` blocks (built once per wave size)."""
        layout = self._layouts.get(n_blocks)
        if layout is not None:
            return layout
        bx, by = self.block
        width = self.warp_size
        n = n_blocks * self.block_lanes
        lin = np.arange(self.block_lanes, dtype=np.int64)
        lane_mask = np.tile(lin < self.n_threads, n_blocks)
        lin = np.minimum(lin, self.n_threads - 1)

        def full(v):
            return np.broadcast_to(np.array(v, dtype=np.int32), (n,))

        special = {
            SpecialReg.TID_X: np.tile((lin % bx).astype(np.int32), n_blocks),
            SpecialReg.TID_Y: np.tile((lin // bx).astype(np.int32), n_blocks),
            SpecialReg.NTID_X: full(bx),
            SpecialReg.NTID_Y: full(by),
            SpecialReg.NCTAID_X: full(self.grid[0]),
            SpecialReg.NCTAID_Y: full(self.grid[1]),
            SpecialReg.LANEID: np.tile(np.arange(width, dtype=np.int32),
                                       n // width),
            SpecialReg.WARPID: np.tile(
                np.repeat(np.arange(self.block_warps, dtype=np.int32), width),
                n_blocks),
        }
        constants = {
            key: np.broadcast_to(np.array(value, dtype=dt), (n,))
            for key, (value, dt) in self.table.constants.items()
        }
        zeros = {dt.numpy_dtype: np.broadcast_to(np.zeros((), dt.numpy_dtype), (n,))
                 for dt in DataType}
        slots = np.repeat(np.arange(n_blocks), self.block_lanes)
        layout = self._layouts[n_blocks] = (lane_mask, special, constants,
                                            zeros, slots)
        return layout

    # ------------------------------------------------------------- registers

    def undefined(self, name: str) -> SimtError:
        return SimtError(
            f"{self.table.name}: read of undefined register %{name} "
            f"(active lanes: {int(np.count_nonzero(self.mask))})"
        )

    def read(self, name: str) -> np.ndarray:
        try:
            value = self.regs[name]
        except KeyError:
            raise self.undefined(name) from None
        if self.partial:
            self.check_written(name)
        return value

    def check_written(self, *names: str) -> None:
        """Trap a read by an active warp that never wrote the register."""
        for name in names:
            wrote = self.partial.get(name)
            if wrote is not None and self.warps & ~wrote:
                raise self.undefined(name)

    def write(self, name: str, dtype: np.dtype, values: np.ndarray) -> None:
        """Bind ``values`` to the register on the active lanes."""
        if values.dtype is not dtype:
            values = values.astype(dtype)
        regs = self.regs
        if self.whole:
            if self.partial:
                self.partial.pop(name, None)
            regs[name] = values
            return
        old = regs.get(name)
        if old is None:
            if self.warps != self.all_warps:
                self.partial[name] = self.warps
            old = self.zeros[dtype]
        elif self.partial:
            wrote = self.partial.get(name)
            if wrote is not None:
                wrote |= self.warps
                if wrote == self.all_warps:
                    del self.partial[name]
                else:
                    self.partial[name] = wrote
        # Lanes outside the live set never run again, so a write under a
        # mask covering every live lane may leave anything in them.
        regs[name] = values if self.full else np.where(self.mask, values, old)

    # ------------------------------------------------------------- execution

    def run(
        self,
        blocks: list[tuple[tuple[int, int], Optional[str]]],
        params: dict,
    ) -> Optional[list[BlockProfile]]:
        """Execute one wave, ``blocks`` as ``(ctaid, block_class)`` pairs, to
        completion; returns the blocks' profiles when profiling."""
        table = self.table
        n_blocks = len(blocks)
        lane_mask, special, constants, zeros, slots = self._layout(n_blocks)
        width, block_lanes = self.warp_size, self.block_lanes
        n_warps = n_blocks * self.block_warps
        self.n_lanes = n_blocks * block_lanes
        self.n_warps = n_warps
        self.all_warps = (1 << n_warps) - 1
        self.zeros = zeros
        self.regs = dict(constants)
        #: register -> bitmask of the warps that wrote it, for registers
        #: that some warp has not written yet
        self.partial = {}
        self.special = dict(special)
        for reg, axis in ((SpecialReg.CTAID_X, 0), (SpecialReg.CTAID_Y, 1)):
            ids = np.array([ctaid[axis] for ctaid, _ in blocks], dtype=np.int32)
            self.special[reg] = np.repeat(ids, block_lanes)
        self.shared = None
        if self.shared_bytes > 0:
            size = 1 << max(10, (self.shared_bytes + 256).bit_length())
            self.shared = SharedSlots(size, slots)
            params = dict(params)
            params["smem_base"] = self.shared.alloc(self.shared_bytes)
        self.params = params
        profiler = self.profiler
        if profiler is not None:
            profiler.begin_wave(blocks, self.block_warps)
            thread_instructions = np.zeros(n_blocks, dtype=np.int64)
        #: active warps per block -> (that vector, runs of each segment by
        #: entries with that many active warps per block)
        patterns: dict = {}
        n_segments = len(table.segment_counts)
        runs = [0] * n_segments  # not attributed without a profiler

        self.live = lane_mask
        live = int(np.count_nonzero(lane_mask))
        exited = None
        executed = np.zeros(n_warps, dtype=np.int64)  # instructions per warp
        total = 0  # instructions of every entry so far: no warp ran more
        stack = [(table.entry, lane_mask, None)]  # (label, mask, reconvergence)
        blocks_table = table.blocks
        with np.errstate(all="ignore"):
            while stack:
                label, mask, reconv = stack.pop()
                if label == reconv:
                    continue
                if exited is not None:
                    mask = mask & ~exited
                lanes = int(np.count_nonzero(mask))
                if not lanes:
                    continue
                warp_any = mask.reshape(n_warps, width).any(axis=1)
                n_active = int(np.count_nonzero(warp_any))
                self.mask = mask
                self.warp_any = warp_any
                self.full = lanes == live
                if n_active == n_warps:
                    self.warps = self.all_warps
                else:
                    self.warps = int.from_bytes(
                        np.packbits(warp_any, bitorder="little").tobytes(),
                        "little")
                # every lane that can still run, in every warp of the wave
                self.whole = self.full and n_active == n_warps
                if profiler is not None:
                    per_block = warp_any.reshape(n_blocks, -1).sum(axis=1)
                    key = per_block.tobytes()
                    pattern = patterns.get(key)
                    if pattern is None:
                        pattern = patterns[key] = (per_block, [0] * n_segments)
                    runs = pattern[1]
                done = 0  # instructions each active warp ran in this entry
                limit = self._first_limit(executed, warp_any, total)
                while label is not None and label != reconv:
                    segments, term = blocks_table[label]
                    for sid, length, ops, barrier in segments:
                        runs[sid] += 1
                        done += length
                        if done >= limit:
                            limit = self._poll(executed, warp_any,
                                               done - length, done)
                        for op in ops:
                            op[0](self, op)
                        if barrier:
                            self._barrier()
                    if term is None:  # exit
                        exited = mask if exited is None else exited | mask
                        self.live = lane_mask & ~exited
                        live -= lanes
                        label = None
                    elif term.__class__ is str:
                        label = term
                    else:
                        label = self._branch(term, mask, lanes, reconv, stack)
                executed[warp_any] += done
                total += done
                if profiler is not None:
                    thread_instructions += done * np.count_nonzero(
                        mask.reshape(n_blocks, block_lanes), axis=1)

        if profiler is None:
            return None
        counts = np.zeros((n_blocks, table.segment_counts.shape[1]),
                          dtype=np.int64)
        for per_block, runs in patterns.values():
            counts += np.outer(per_block, np.asarray(runs) @ table.segment_counts)
        return profiler.end_wave(counts, table.count_keys, thread_instructions)

    def _branch(self, term, mask, lanes, reconv, stack) -> Optional[str]:
        pred, negated, target, target_else, ipdom, region = term
        taken = self.read(pred).astype(bool, copy=False)
        taken = mask & ~taken if negated else mask & taken
        n_taken = int(np.count_nonzero(taken))
        if n_taken == lanes:
            return target
        if not n_taken:
            return target_else
        fallthrough = mask ^ taken
        if self.profiler is not None:
            width = self.warp_size
            split = (taken.reshape(-1, width).any(axis=1)
                     & fallthrough.reshape(-1, width).any(axis=1))
            if split.any():
                self.profiler.on_divergence(region, split)
        # Serialize both paths, reconverging at the ipdom.
        if ipdom is not None and ipdom != reconv:
            stack.append((ipdom, mask, reconv))
        stack.append((target_else, fallthrough, ipdom))
        stack.append((target, taken, ipdom))
        return None

    def _barrier(self) -> None:
        """The per-block ``__syncthreads`` contract: every block with a lane
        in the mask has all its live lanes there.

        No pending stack entry can then come from a branch that split such
        a block: a split's lanes cannot exit before its reconvergence block,
        so that block's other lanes would still be live elsewhere."""
        if not self.full:
            width = self.block_lanes
            inside = self.mask.reshape(-1, width).any(axis=1)
            outside = (self.live & ~self.mask).reshape(-1, width).any(axis=1)
            if (inside & outside).any():
                raise SimtError(
                    f"{self.table.name}: bar.sync in divergent control "
                    "flow — undefined behaviour on real hardware"
                )
        if self.shared is None:
            raise SimtError(
                f"{self.table.name}: bar.sync executed, but the block was "
                "launched without barrier-phased execution (kernel metadata "
                "missing 'shared_bytes'?)"
            )

    # ------------------------------------------------ runaway limit, watchdog

    def _first_limit(self, executed, warp_any, total) -> int:
        """Entry length at which a new stack entry next needs the exact
        per-warp check of :meth:`_poll`."""
        if self.abort is None:
            return MAX_WARP_INSTRUCTIONS - total + 1
        if total < WATCHDOG_PERIOD:
            # No warp has run more than ``total`` instructions, so none can
            # reach a poll or the runaway limit sooner.
            return min(MAX_WARP_INSTRUCTIONS - total + 1, WATCHDOG_PERIOD - total)
        return self._next_limit(executed[warp_any], 0)

    def _next_limit(self, counts: np.ndarray, done: int) -> int:
        limit = MAX_WARP_INSTRUCTIONS - int(counts.max()) + 1
        if self.abort is not None:
            period = WATCHDOG_PERIOD
            limit = min(limit, int(
                (((counts + done) // period + 1) * period - counts).min()))
        return limit

    def _poll(self, executed, warp_any, before: int, after: int) -> int:
        """Exact per-warp check for a segment that took each active warp
        from ``before`` to ``after`` instructions into the current entry:
        the runaway limit, then one watchdog poll per multiple of
        :data:`WATCHDOG_PERIOD` each warp passed. Returns the next limit."""
        counts = executed[warp_any]
        if int(counts.max()) + after > MAX_WARP_INSTRUCTIONS:
            raise SimtError(
                f"{self.table.name}: warp exceeded {MAX_WARP_INSTRUCTIONS} "
                "instructions — runaway loop?"
            )
        if self.abort is not None:
            period = WATCHDOG_PERIOD
            polls = (counts + after) // period - (counts + before) // period
            if polls.any():
                if self.profiler is not None:
                    per_warp = np.zeros(self.n_warps, dtype=np.int64)
                    per_warp[warp_any] = polls
                    self.profiler.on_watchdog_poll(per_warp)
                if self.abort.is_set():
                    raise SimtAbort(f"{self.table.name}: execution aborted")
        return self._next_limit(counts, after)
