"""SIMT execution engine: lock-step threadblocks from a decode-once table.

Executes virtual-ISA kernels the way an Nvidia SM does at the model level the
paper reasons about:

* a warp is ``warp_size`` lanes (32 on NVIDIA parts, 64 on AMD wavefront
  devices) executing in lock step under an active mask,
* on a divergent branch, both paths execute serially with complementary
  masks, reconverging at the *immediate post-dominator* of the branch block
  (the classic stack-based reconvergence model),
* loops (the Repeat border pattern's ``while`` re-indexing) iterate until all
  active lanes exit.

All warps of a threadblock run together, as one ``(n_warps x warp_size)``
lane vector under one reconvergence stack, so an instruction is one NumPy
operation for the whole block. Everything observable stays per warp:

* a warp takes part in an instruction when any of its lanes is active, and
  it diverges at a branch only when its *own* active lanes split (a branch
  that splits the block between uniform warps runs both paths serially and
  counts no divergence);
* memory transactions and shared-memory bank conflicts are counted warp by
  warp (:func:`repro.gpu.memory.warp_transactions`,
  :func:`~repro.gpu.memory.warp_bank_conflicts`);
* reading a register that an active warp never wrote traps, even when
  another warp of the block wrote it;
* the runaway limit and the abort watchdog count each warp's instructions.

A ``bar.sync`` needs no scheduling: every warp reaches it at once, and it
must do so in uniform control flow (empty reconvergence stack, every live
lane active), as on real hardware.

Each :class:`~repro.ir.function.KernelFunction` is decoded once, at its first
launch, into a :class:`DecodedKernel` stored on the function: every basic
block becomes straight-line *segments*, each ending at a ``bar.sync`` or the
block's terminator, holding tuples of shared per-opcode handlers and register
names, plus the segment's static counts by keyword, ISP region, role and
cost category. The profiler is charged once per executed segment, with its
counts times the warps taking part; memory accesses, divergences and
watchdog polls are charged as they happen.

Lane values are NumPy vectors, so arithmetic is bit-accurate (int32
wraparound, float32 rounding). Register values are never modified in place:
a write binds a new array, so registers, immediates and special registers
share arrays freely.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from typing import Optional

import numpy as np

from ..ir.cfg import immediate_postdominators
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
from .memory import GlobalMemory, warp_bank_conflicts, warp_transactions
from .profiler import Profiler

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
    """A kernel function decoded for the block executor.

    ``blocks`` maps each label to ``(segments, terminator)``. A segment is
    ``(segment_id, length, ops, ends_at_barrier)``; ``ops`` holds one tuple
    per instruction that does work, ``(handler, ...operands)``, with
    registers and immediates named by string keys. ``length`` counts every
    instruction of the segment, the closing ``bar.sync`` or terminator
    included. The terminator is ``None`` (exit), a label (unconditional
    branch), or ``(predicate, negated, target, else_target, ipdom, region)``.
    ``segment_counts[segment_id]`` lists the segment's static counts as
    ``((keyword, region, role, category), n)`` pairs. ``constants`` maps each
    immediate's key to its ``(value, numpy dtype)``.
    """

    name: str
    entry: str
    blocks: dict
    segment_counts: tuple
    constants: dict


def decode(func: KernelFunction) -> DecodedKernel:
    """Decode ``func`` once for :class:`BlockExecutor` (no verification)."""
    ipdoms = immediate_postdominators(func)
    keys: dict = {}
    constants: dict[str, tuple] = {}
    segment_counts: list[tuple] = []

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
        segments = []
        ops: list[tuple] = []
        counts: dict = {}
        length = 0
        for instr in block.instructions:
            key = (instr.keyword, instr.region, instr.role, category_of(instr))
            key = keys.setdefault(key, key)
            counts[key] = counts.get(key, 0) + 1
            length += 1
            if instr.op is Opcode.BAR or instr.is_terminator:
                segments.append((len(segment_counts), length, tuple(ops),
                                 instr.op is Opcode.BAR))
                segment_counts.append(tuple(counts.items()))
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
        blocks[block.label] = (tuple(segments), term)
    return DecodedKernel(func.name, func.entry.label, blocks,
                         tuple(segment_counts), constants)


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
# Handlers: ``handler(executor, op)`` runs one instruction for the block.
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


def _h_special(ex, op):
    ex.write(op[2], op[3], ex.special[op[1]])


def _h_param(ex, op):
    ex.write(op[2], op[3], np.full(ex.n_lanes, ex.params[op[1]], dtype=op[4]))


def _h_ld(ex, op):
    addrs = ex.read(op[4]).astype(np.int64)
    if ex.profiler is not None:
        ex.profiler.on_global_access(
            op[1], warp_transactions(addrs, ex.mask, ex.warp_size).tolist(),
            billed=True)
    ex.write(op[2], op[3], ex.memory.gather(addrs, ex.mask, op[5]))


def _h_st(ex, op):
    addrs = ex.read(op[2]).astype(np.int64)
    vals = ex.read(op[3])
    if ex.profiler is not None:
        ex.profiler.on_global_access(
            op[1], warp_transactions(addrs, ex.mask, ex.warp_size).tolist(),
            billed=True)
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
            op[1], warp_transactions(addrs, ex.mask, ex.warp_size).tolist(),
            billed=False)
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
        conflicts = warp_bank_conflicts(addrs, ex.mask, ex.warp_size)
        ex.profiler.on_shared_access(op[1], store=store, warps=ex.n_warps_active,
                                     conflicts=int(conflicts.sum()))
    return addrs


def _h_lds(ex, op):
    addrs = _shared_access(ex, op, op[4], store=False)
    ex.write(op[2], op[3], ex.shared.gather(addrs, ex.mask, op[5]))


def _h_sts(ex, op):
    addrs = _shared_access(ex, op, op[2], store=True)
    ex.shared.scatter(addrs, ex.read(op[3]), ex.mask, op[4])


# ---------------------------------------------------------------------------
# The block executor
# ---------------------------------------------------------------------------


class BlockExecutor:
    """Runs the threadblocks of one launch, each as one lock-step lane vector.

    Lanes are the block's threads linearized x-major and split into warps of
    ``warp_size`` (a 32x4 block holds 4 warps of one row each on a warp32
    device). The executor is per launch; :meth:`run` executes one block.
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
    ):
        self.table = table
        self.memory = memory
        self.profiler = profiler
        self.abort = abort
        self.warp_size = warp_size
        bx, by = block
        self.n_threads = bx * by
        self.n_warps = -(-self.n_threads // warp_size)
        self.n_lanes = self.n_warps * warp_size
        self.all_warps = (1 << self.n_warps) - 1
        lin = np.arange(self.n_lanes, dtype=np.int64)
        self.lane_mask = lin < self.n_threads
        lin = np.minimum(lin, self.n_threads - 1)

        def full(v):
            return np.full(self.n_lanes, v, dtype=np.int32)

        self.special_launch = {
            SpecialReg.TID_X: (lin % bx).astype(np.int32),
            SpecialReg.TID_Y: (lin // bx).astype(np.int32),
            SpecialReg.NTID_X: full(bx),
            SpecialReg.NTID_Y: full(by),
            SpecialReg.NCTAID_X: full(grid[0]),
            SpecialReg.NCTAID_Y: full(grid[1]),
            SpecialReg.LANEID: np.tile(np.arange(warp_size, dtype=np.int32),
                                       self.n_warps),
            SpecialReg.WARPID: np.repeat(np.arange(self.n_warps, dtype=np.int32),
                                         warp_size),
        }
        self.constants = {
            key: np.full(self.n_lanes, value, dtype=dt)
            for key, (value, dt) in table.constants.items()
        }
        self.zeros = {dt.numpy_dtype: np.zeros(self.n_lanes, dt.numpy_dtype)
                      for dt in DataType}

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
        ctaid: tuple[int, int],
        params: dict,
        shared: Optional[GlobalMemory] = None,
    ) -> None:
        """Execute threadblock ``ctaid`` to completion."""
        table = self.table
        blocks = table.blocks
        n_warps, width = self.n_warps, self.warp_size
        self.params = params
        self.shared = shared
        self.regs = dict(self.constants)
        #: register -> bitmask of the warps that wrote it, for registers
        #: that some warp has not written yet
        self.partial = {}
        self.special = dict(self.special_launch)
        self.special[SpecialReg.CTAID_X] = np.full(self.n_lanes, ctaid[0], np.int32)
        self.special[SpecialReg.CTAID_Y] = np.full(self.n_lanes, ctaid[1], np.int32)

        exited = None
        live = self.n_threads
        runs = [0] * len(table.segment_counts)  # warp executions per segment
        first_run: list[int] = []
        executed = [0] * n_warps  # instructions per warp, before this entry
        total = 0  # instructions of every entry so far: no warp ran more
        thread_instructions = 0
        stack = [(table.entry, self.lane_mask, None)]
        with np.errstate(all="ignore"):
            while stack:
                label, mask, reconv = stack.pop()
                if exited is not None:
                    mask = mask & ~exited
                lanes = int(np.count_nonzero(mask))
                if not lanes:
                    continue
                active = np.flatnonzero(
                    mask.reshape(n_warps, width).any(axis=1)).tolist()
                n_active = len(active)
                self.mask = mask
                self.full = lanes == live
                self.n_warps_active = n_active
                self.warps = (self.all_warps if n_active == n_warps
                              else sum(1 << w for w in active))
                # every lane that can still run, in every warp of the block
                self.whole = self.full and n_active == n_warps
                done = 0  # instructions each active warp ran in this entry
                limit = self._first_limit(executed, active, total)
                while label is not None and label != reconv:
                    segments, term = blocks[label]
                    for sid, length, ops, barrier in segments:
                        if not runs[sid]:
                            first_run.append(sid)
                        runs[sid] += n_active
                        thread_instructions += length * lanes
                        done += length
                        if done >= limit:
                            limit = self._poll(executed, active, done - length, done)
                        for op in ops:
                            op[0](self, op)
                        if barrier:
                            self._barrier(stack, lanes == live)
                    if term is None:  # exit
                        exited = mask if exited is None else exited | mask
                        live -= lanes
                        label = None
                    elif term.__class__ is str:
                        label = term
                    else:
                        label = self._branch(term, mask, lanes, reconv, stack)
                for w in active:
                    executed[w] += done
                total += done

        if self.profiler is not None:
            counts: dict = {}
            for sid in first_run:
                n_runs = runs[sid]
                for key, n in table.segment_counts[sid]:
                    counts[key] = counts.get(key, 0) + n * n_runs
            self.profiler.on_segments(counts, thread_instructions)

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
            split = int(np.count_nonzero(
                taken.reshape(-1, width).any(axis=1)
                & fallthrough.reshape(-1, width).any(axis=1)))
            if split:
                self.profiler.on_divergence(region, split)
        # Serialize both paths, reconverging at the ipdom.
        if ipdom is not None and ipdom != reconv:
            stack.append((ipdom, mask, reconv))
        stack.append((target_else, fallthrough, ipdom))
        stack.append((target, taken, ipdom))
        return None

    def _barrier(self, stack, all_live: bool) -> None:
        if stack or not all_live:
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

    def _first_limit(self, executed, active, total) -> int:
        """Entry length at which a new stack entry next needs the exact
        per-warp check of :meth:`_poll`."""
        if self.abort is None:
            return MAX_WARP_INSTRUCTIONS - total + 1
        if total < WATCHDOG_PERIOD:
            # No warp has run more than ``total`` instructions, so none can
            # reach a poll or the runaway limit sooner.
            return min(MAX_WARP_INSTRUCTIONS - total + 1, WATCHDOG_PERIOD - total)
        return self._next_limit([executed[w] for w in active], 0)

    def _next_limit(self, counts: list[int], done: int) -> int:
        limit = MAX_WARP_INSTRUCTIONS - max(counts) + 1
        if self.abort is not None:
            period = WATCHDOG_PERIOD
            limit = min(limit, min(((c + done) // period + 1) * period - c
                                   for c in counts))
        return limit

    def _poll(self, executed, active, before: int, after: int) -> int:
        """Exact per-warp check for a segment that took each active warp
        from ``before`` to ``after`` instructions into the current entry:
        the runaway limit, then one watchdog poll per multiple of
        :data:`WATCHDOG_PERIOD` each warp passed. Returns the next limit."""
        counts = [executed[w] for w in active]
        if max(counts) + after > MAX_WARP_INSTRUCTIONS:
            raise SimtError(
                f"{self.table.name}: warp exceeded {MAX_WARP_INSTRUCTIONS} "
                "instructions — runaway loop?"
            )
        if self.abort is not None:
            period = WATCHDOG_PERIOD
            polls = sum((c + after) // period - (c + before) // period
                        for c in counts)
            if polls:
                if self.profiler is not None:
                    self.profiler.on_watchdog_poll(polls)
                if self.abort.is_set():
                    raise SimtAbort(f"{self.table.name}: execution aborted")
        return self._next_limit(counts, after)
