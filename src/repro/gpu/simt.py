"""SIMT warp execution engine.

Executes virtual-ISA kernels the way an Nvidia SM does at the model level the
paper reasons about:

* a warp is ``warp_size`` lanes (32 on NVIDIA parts, 64 on AMD wavefront
  devices) executing in lock step under an active mask,
* on a divergent branch, both paths execute serially with complementary
  masks, reconverging at the *immediate post-dominator* of the branch block
  (the classic stack-based reconvergence model),
* loops (the Repeat border pattern's ``while`` re-indexing) iterate until all
  active lanes exit.

Lane values are NumPy vectors of length ``warp_size``, so arithmetic is
bit-accurate (int32 wraparound, float32 rounding) while remaining fast enough
to simulate full threadblocks in tests.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Optional

import numpy as np

from ..ir.cfg import immediate_postdominators
from ..ir.function import KernelFunction
from ..ir.instructions import (
    CmpOp,
    Immediate,
    Instruction,
    Opcode,
    Register,
    SpecialReg,
)
from ..ir.types import DataType
from .memory import GlobalMemory, transactions_for
from .profiler import Profiler

#: Lane count when no device width is given (NVIDIA's 32). Warp width is a
#: per-device property: launches size lane vectors from the
#: :class:`WarpContext` / the executor's ``warp_size``.
_DEFAULT_WARP_SIZE = 32

#: Safety valve against runaway loops in broken kernels.
MAX_WARP_INSTRUCTIONS = 20_000_000


class SimtError(Exception):
    """Raised on dynamic execution errors (undefined register reads etc.)."""


class SimtAbort(SimtError):
    """Raised when a launch's abort event is set mid-execution.

    Cooperative cancellation: the serve engine sets the event when a SIMT
    execution blows its deadline, so the abandoned simulation stops burning
    CPU instead of running to completion in a zombie thread.
    """


@dataclasses.dataclass
class WarpContext:
    """Per-warp launch context: special-register values for each lane.

    ``tid_x``/``tid_y`` are per-lane vectors; the block/grid identifiers are
    scalars broadcast on read.
    """

    tid_x: np.ndarray
    tid_y: np.ndarray
    ctaid_x: int
    ctaid_y: int
    ntid_x: int
    ntid_y: int
    nctaid_x: int
    nctaid_y: int
    warp_id: int
    lane_mask: np.ndarray  # lanes that correspond to real threads

    @property
    def warp_size(self) -> int:
        """Lane width of this warp (the device's warp/wavefront size)."""
        return int(self.lane_mask.size)

    def special_value(self, sreg: SpecialReg) -> np.ndarray:
        if sreg is SpecialReg.TID_X:
            return self.tid_x.astype(np.int32)
        if sreg is SpecialReg.TID_Y:
            return self.tid_y.astype(np.int32)
        scalar = {
            SpecialReg.CTAID_X: self.ctaid_x,
            SpecialReg.CTAID_Y: self.ctaid_y,
            SpecialReg.NTID_X: self.ntid_x,
            SpecialReg.NTID_Y: self.ntid_y,
            SpecialReg.NCTAID_X: self.nctaid_x,
            SpecialReg.NCTAID_Y: self.nctaid_y,
            SpecialReg.WARPID: self.warp_id,
        }
        if sreg in scalar:
            return np.full(self.warp_size, scalar[sreg], dtype=np.int32)
        if sreg is SpecialReg.LANEID:
            return np.arange(self.warp_size, dtype=np.int32)
        raise SimtError(f"unsupported special register {sreg}")


class WarpExecutor:
    """Executes one warp of a kernel function to completion."""

    def __init__(
        self,
        func: KernelFunction,
        memory: GlobalMemory,
        params: dict[str, float | int],
        profiler: Optional[Profiler] = None,
        ipdoms: Optional[dict[str, Optional[str]]] = None,
        shared: Optional[GlobalMemory] = None,
        abort: Optional["threading.Event"] = None,
        warp_size: int = _DEFAULT_WARP_SIZE,
    ):
        self.func = func
        self.memory = memory
        self.params = params
        self.shared = shared
        self.profiler = profiler
        self.abort = abort
        self.warp_size = warp_size
        self.ipdoms = ipdoms if ipdoms is not None else immediate_postdominators(func)
        self.regs: dict[str, np.ndarray] = {}
        self._executed = 0
        # Lanes that executed EXIT; divergence continuations must not revive
        # them (a lane can exit inside one arm of a branch while the stack
        # still holds the pre-branch mask for the reconvergence point).
        self._exited = np.zeros(warp_size, dtype=bool)

    # ----------------------------------------------------------------- values

    def _read(self, operand, mask: np.ndarray) -> np.ndarray:
        if isinstance(operand, Immediate):
            return np.full(self.warp_size, operand.value,
                           dtype=operand.dtype.numpy_dtype)
        assert isinstance(operand, Register)
        try:
            return self.regs[operand.name]
        except KeyError:
            raise SimtError(
                f"{self.func.name}: read of undefined register {operand} "
                f"(active lanes: {int(mask.sum())})"
            ) from None

    def _write(self, reg: Register, values: np.ndarray, mask: np.ndarray) -> None:
        dtype = reg.dtype.numpy_dtype
        values = values.astype(dtype, copy=False)
        current = self.regs.get(reg.name)
        if current is None:
            current = np.zeros(self.warp_size, dtype=dtype)
            self.regs[reg.name] = current
        current[mask] = values[mask]

    # -------------------------------------------------------------- execution

    def run(self, ctx: WarpContext) -> None:
        """Run the warp to completion (kernels without barriers)."""
        for _ in self.run_phases(ctx):
            raise SimtError(
                f"{self.func.name}: bar.sync executed, but the warp was "
                "launched without barrier-phased block execution"
            )

    def run_phases(self, ctx: WarpContext):
        """Generator: executes the warp, yielding once per ``bar.sync``.

        The block executor advances all warps of a block in lock-step
        phases, resuming each generator after every warp has arrived at the
        barrier — the CUDA ``__syncthreads`` contract. Barriers must execute
        in uniform control flow (full lane mask, no pending divergence); a
        divergent barrier raises, as the real hardware's behaviour is
        undefined.
        """
        full = ctx.lane_mask.copy()
        if not full.any():
            return
        # Divergence stack entries: (block_label, resume_index, mask,
        # reconvergence_label).
        stack: list[tuple[str, int, np.ndarray, Optional[str]]] = [
            (self.func.entry.label, 0, full, None)
        ]
        while stack:
            label, start, mask, reconv = stack.pop()
            while label is not None and label != reconv:
                mask = mask & ~self._exited
                if not mask.any():
                    break
                result = self._run_block(label, start, mask, reconv, stack, ctx)
                start = 0
                if isinstance(result, tuple):  # ("bar", label, resume_index)
                    _, bar_label, resume = result
                    if stack or not np.array_equal(mask, ctx.lane_mask & ~self._exited):
                        raise SimtError(
                            f"{self.func.name}: bar.sync in divergent control "
                            "flow — undefined behaviour on real hardware"
                        )
                    yield
                    label, start = bar_label, resume
                    continue
                label = result

    def _run_block(
        self,
        label: str,
        start: int,
        mask: np.ndarray,
        reconv: Optional[str],
        stack: list,
        ctx: WarpContext,
    ):
        """Execute one block under ``mask`` from instruction ``start``.

        Returns the next label (or None to pop the stack), or a
        ``("bar", label, resume_index)`` tuple when a barrier is hit.
        """
        block = self.func.block(label)
        for i in range(start, len(block.instructions)):
            instr = block.instructions[i]
            self._executed += 1
            if self._executed > MAX_WARP_INSTRUCTIONS:
                raise SimtError(
                    f"{self.func.name}: warp exceeded {MAX_WARP_INSTRUCTIONS} "
                    "instructions — runaway loop?"
                )
            # Checked sparsely: Event.is_set() is cheap but not free, and
            # this is the interpreter's innermost loop. Each poll counts as
            # a watchdog stall event — the warp pauses for the host check.
            if self.abort is not None and self._executed % 2048 == 0:
                if self.profiler is not None:
                    self.profiler.on_watchdog_poll()
                if self.abort.is_set():
                    raise SimtAbort(f"{self.func.name}: execution aborted")
            if instr.op is Opcode.BRA:
                return self._branch(instr, label, mask, reconv, stack)
            if instr.op is Opcode.EXIT:
                self._count(instr, mask)
                self._exited |= mask
                return None
            if instr.op is Opcode.BAR:
                self._count(instr, mask)
                return ("bar", label, i + 1)
            self._execute(instr, mask, ctx)
        raise SimtError(f"{self.func.name}:{label}: block fell through without terminator")

    def _branch(
        self,
        instr: Instruction,
        label: str,
        mask: np.ndarray,
        reconv: Optional[str],
        stack: list,
    ) -> Optional[str]:
        self._count(instr, mask)
        if instr.pred is None:
            return instr.target
        pvals = self._read(instr.pred, mask).astype(bool)
        if instr.pred_negated:
            pvals = ~pvals
        taken = mask & pvals
        fallthrough = mask & ~pvals
        any_taken = bool(taken[mask].any()) if mask.any() else False
        any_fall = bool(fallthrough[mask].any()) if mask.any() else False
        if any_taken and not any_fall:
            return instr.target
        if any_fall and not any_taken:
            return instr.target_else
        # Divergence: serialize both paths, reconverging at the ipdom.
        if self.profiler is not None:
            self.profiler.on_divergence(instr)
        ip = self.ipdoms.get(label)
        if ip is not None and ip != reconv:
            stack.append((ip, 0, mask, reconv))
        stack.append((instr.target_else, 0, fallthrough, ip))
        stack.append((instr.target, 0, taken, ip))
        return None

    def _count(self, instr: Instruction, mask: np.ndarray, transactions: int = 0) -> None:
        if self.profiler is not None:
            self.profiler.on_instruction(instr, int(mask.sum()), transactions)

    def _bank_conflicts(self, addrs: np.ndarray, mask: np.ndarray) -> int:
        """Replay count of one warp shared access under the stride model:
        ``warp_size`` banks of one 4-byte word; replays = distinct words
        beyond the first in the most-loaded bank (same-word lanes
        broadcast)."""
        words = np.unique(addrs[mask] >> 2)
        if words.size <= 1:
            return 0
        per_bank = np.bincount(
            (words % self.warp_size).astype(np.int64), minlength=self.warp_size
        )
        return int(per_bank.max()) - 1

    def _execute(self, instr: Instruction, mask: np.ndarray, ctx: WarpContext) -> None:
        op = instr.op

        if op is Opcode.MOV and instr.special is not None:
            self._count(instr, mask)
            self._write(instr.dst, ctx.special_value(instr.special), mask)
            return
        if op is Opcode.LDPARAM:
            self._count(instr, mask)
            value = self.params[instr.param]
            vec = np.full(self.warp_size, value, dtype=instr.dtype.numpy_dtype)
            self._write(instr.dst, vec, mask)
            return
        if op is Opcode.LD:
            addrs = self._read(instr.srcs[0], mask).astype(np.int64)
            tx = transactions_for(addrs, mask)
            self._count(instr, mask, tx)
            vals = self.memory.gather(addrs, mask, instr.dtype)
            self._write(instr.dst, vals, mask)
            return
        if op is Opcode.ST:
            addrs = self._read(instr.srcs[0], mask).astype(np.int64)
            vals = self._read(instr.srcs[1], mask)
            tx = transactions_for(addrs, mask)
            self._count(instr, mask, tx)
            self.memory.scatter(addrs, vals, mask, instr.dtype)
            return
        if op is Opcode.TEX:
            self._execute_tex(instr, mask)
            return
        if op is Opcode.LDS or op is Opcode.STS:
            if self.shared is None:
                raise SimtError(
                    f"{self.func.name}: shared-memory access but the launch "
                    "allocated no shared memory (kernel metadata missing "
                    "'shared_bytes'?)"
                )
            addrs = self._read(instr.srcs[0], mask).astype(np.int64)
            self._count(instr, mask)
            if self.profiler is not None:
                self.profiler.on_shared_access(
                    instr, store=op is Opcode.STS,
                    conflicts=self._bank_conflicts(addrs, mask),
                )
            if op is Opcode.LDS:
                vals = self.shared.gather(addrs, mask, instr.dtype)
                self._write(instr.dst, vals, mask)
            else:
                vals = self._read(instr.srcs[1], mask)
                self.shared.scatter(addrs, vals, mask, instr.dtype)
            return

        self._count(instr, mask)
        srcs = [self._read(s, mask) for s in instr.srcs]
        result = _apply(instr, srcs, mask)
        if instr.dst is not None:
            self._write(instr.dst, result, mask)

    def _execute_tex(self, instr: Instruction, mask: np.ndarray) -> None:
        """Textured 2-D load: the TMU resolves out-of-range coordinates in
        hardware (clamp-to-edge or border color), so the kernel needs no
        checks — the exact trade-off the paper's Section I describes."""
        img = instr.param
        try:
            base = int(self.params[f"{img}_ptr"])
            width = int(self.params[f"{img}_w"])
            height = int(self.params[f"{img}_h"])
        except KeyError as exc:
            raise SimtError(
                f"{self.func.name}: tex sample of {img!r} but launch lacks "
                f"parameter {exc.args[0]!r}"
            ) from None
        xs = self._read(instr.srcs[0], mask).astype(np.int64)
        ys = self._read(instr.srcs[1], mask).astype(np.int64)
        if instr.tex_mode == "border":
            in_range = (xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)
        else:
            in_range = np.ones_like(xs, dtype=bool)
        cx = np.clip(xs, 0, width - 1)
        cy = np.clip(ys, 0, height - 1)
        addrs = base + 4 * (cy * width + cx)
        tx = transactions_for(addrs, mask)
        self._count(instr, mask, tx)
        vals = self.memory.gather(addrs, mask, DataType.F32)
        if instr.tex_mode == "border":
            vals = np.where(in_range, vals,
                            np.float32(instr.tex_border_value)).astype(np.float32)
        self._write(instr.dst, vals, mask)


# ---------------------------------------------------------------------------
# Scalar semantics of the ALU, vectorized over lanes.
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


_CMP = {
    CmpOp.EQ: np.equal,
    CmpOp.NE: np.not_equal,
    CmpOp.LT: np.less,
    CmpOp.LE: np.less_equal,
    CmpOp.GT: np.greater,
    CmpOp.GE: np.greater_equal,
}


def _apply(instr: Instruction, srcs: list[np.ndarray], mask: np.ndarray) -> np.ndarray:
    op = instr.op
    dtype = instr.dtype.numpy_dtype
    with np.errstate(all="ignore"):
        if op is Opcode.MOV:
            return srcs[0].astype(dtype, copy=False)
        if op is Opcode.ADD:
            return srcs[0] + srcs[1]
        if op is Opcode.SUB:
            return srcs[0] - srcs[1]
        if op is Opcode.MUL:
            return srcs[0] * srcs[1]
        if op is Opcode.MAD:
            if instr.dtype is DataType.F32:
                # fused multiply-add in float32
                return np.float32(srcs[0]) * np.float32(srcs[1]) + np.float32(srcs[2])
            return srcs[0] * srcs[1] + srcs[2]
        if op is Opcode.DIV:
            if instr.dtype.is_integer:
                return _trunc_div(srcs[0], srcs[1])
            out = srcs[0] / np.where(srcs[1] == 0, np.float32(np.nan), srcs[1])
            return np.where(srcs[1] == 0, np.float32(np.inf) * np.sign(srcs[0]), out)
        if op is Opcode.REM:
            if instr.dtype.is_integer:
                return _trunc_rem(srcs[0], srcs[1])
            return np.fmod(srcs[0], srcs[1])
        if op is Opcode.MIN:
            return np.minimum(srcs[0], srcs[1])
        if op is Opcode.MAX:
            return np.maximum(srcs[0], srcs[1])
        if op is Opcode.ABS:
            return np.abs(srcs[0])
        if op is Opcode.NEG:
            return -srcs[0]
        if op is Opcode.AND:
            return srcs[0] & srcs[1] if instr.dtype.is_integer else srcs[0] & srcs[1]
        if op is Opcode.OR:
            return srcs[0] | srcs[1]
        if op is Opcode.XOR:
            return srcs[0] ^ srcs[1]
        if op is Opcode.NOT:
            return ~srcs[0]
        if op is Opcode.SHL:
            return np.left_shift(srcs[0], srcs[1] & 31)
        if op is Opcode.SHR:
            return np.right_shift(srcs[0], srcs[1] & 31)
        if op is Opcode.SETP:
            return _CMP[instr.cmp](srcs[0], srcs[1])
        if op is Opcode.SELP:
            return np.where(srcs[2].astype(bool), srcs[0], srcs[1])
        if op is Opcode.CVT:
            src = srcs[0]
            if instr.dtype.is_integer and instr.src_dtype is DataType.F32:
                # PTX cvt.rzi: round toward zero
                src = np.trunc(src)
                src = np.where(np.isfinite(src), src, 0.0)
            return src.astype(dtype)
        if op is Opcode.EX2:
            return np.exp2(srcs[0], dtype=np.float32)
        if op is Opcode.LG2:
            return np.log2(srcs[0], dtype=np.float32)
        if op is Opcode.RCP:
            return np.float32(1.0) / srcs[0]
        if op is Opcode.SQRT:
            return np.sqrt(srcs[0], dtype=np.float32)
        if op is Opcode.RSQRT:
            return np.float32(1.0) / np.sqrt(srcs[0], dtype=np.float32)
        if op is Opcode.SIN:
            return np.sin(srcs[0], dtype=np.float32)
        if op is Opcode.COS:
            return np.cos(srcs[0], dtype=np.float32)
    raise SimtError(f"unimplemented opcode {op}")

