"""The shared-memory staging generator: one kernel per block-tiled plan.

Lowers a :class:`repro.compiler.fusion.FusedPlan` to a single kernel in
which every block produces one ``tx x ty`` output tile entirely out of
on-chip scratch. It serves all three staging shapes; ``variant`` names
the one to emit:

* ``FUSED`` — a multi-stage pipeline as one megakernel;
* ``SHARED_ISP`` — a one-stage plan: Hipacc's tile staging, with the
  staging loop specialized per ISP region (Body blocks stage check-free);
* ``SHARED`` — the same one-stage plan as a single clone that carries
  every check and has no region switch.

:func:`repro.compiler.driver.compile_kernel` builds the one-stage plans
(:mod:`repro.compiler.shared`); :func:`compile_fused_simt` compiles the
multi-stage ones. Each region clone runs:

1. **Stage** each external input's tile + cumulative-halo hull into shared
   memory with one cooperative strided loop per buffer, applying only the
   block's region checks — the tile-granular ISP split of the staging
   phase. Border handling thus runs once per staged pixel, not per tap.
2. **Compute** each live intermediate stage slot-by-slot into its own
   shared window. In-range slots are exact by induction; halo slots are
   then filled by a checked smem->smem copy that applies the consumer's
   border mapping (``slot[c] <- slot[m(c)]``), so downstream taps read
   plain offsets with no checks at all. Stages consumed with REPEAT are
   instead computed over the whole extended window (wraparound commutes
   with translation, so the extended values *are* the wrapped values —
   gated by the closure rule below).
3. The **final stage** computes one pixel per thread straight from shared
   memory and stores to global — the only global traffic besides the
   initial staging reads.

Intermediates never touch global memory: the DRAM round-trip the staged
path pays per stage becomes smem traffic (Jangda & Guha's overlapped
tiling, arXiv:1909.07190, executed with Chen et al.'s on-chip data-reuse
discipline, arXiv:1907.06154).

Shared windows are row-padded by one element whenever the row length is a
multiple of the device's warp width — the classic LDS bank-conflict dodge —
which is why the generated IR differs between warp32 and wave64 parts.

The generator refuses (``CompileError`` — fused callers fall back to
per-stage NAIVE) exactly where the host fused path degrades: non-exact
grid tiling (``bar.sync`` forbids early-exit guards), degenerate region
geometry for the *maximum* cumulative halo (a strict superset of
:func:`repro.runtime.vectorized.degenerate_geometry` — covers 1x1 images
and over-wide windows; ``SHARED`` has no regions and is exempt),
inconsistent border conditions on one staged buffer, and a REPEAT
consumer whose producer does not itself read everything with REPEAT
(wraparound does not commute through other mappings).
:func:`compile_fused_simt` adds two more: a single-stage plan (nothing to
fuse) and a footprint beyond ``device.shared_mem_per_sm``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

from ..dsl.boundary import Boundary
from ..gpu.device import DeviceSpec
from ..gpu.launch import LaunchConfig
from ..ir.builder import IRBuilder
from ..ir.function import KernelFunction, Param
from ..ir.instructions import Register, SpecialReg
from ..ir.types import DataType
from ..ir.verifier import verify
from .border import combine_valid, emit_axis_checks
from .frontend import KernelDescription
from .fusion import FusedPlan
from .isp import CompileError, Variant, _emit_switch_chain
from .lowering import KernelParams, RegionLowering, emit_coordinates, grid_for
from .passes import optimize as run_passes
from .regions import REGION_CHECKS, SWITCH_ORDER, Region, RegionGeometry
from .registers import RegisterEstimate, estimate_registers


# ---------------------------------------------------------------------------
# Shared-memory layout
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class StagedBuffer:
    """One shared-memory window: a tile plus its cumulative halo hull."""

    name: str
    #: cumulative halo (hx, hy) — from ``FusedPlan.halos``
    halo: tuple[int, int]
    #: window dimensions (tx + 2*hx, ty + 2*hy) in elements
    window: tuple[int, int]
    #: row stride in elements (bank-conflict padded)
    stride: int
    #: byte offset of this window inside the block's scratchpad
    offset: int
    #: True for pipeline inputs (staged from global), False for on-chip
    #: intermediates (computed in place)
    external: bool
    #: the single border mapping every checked consumer applies — halo
    #: slots hold ``img[m(c)]`` under exactly this mapping
    boundary: Boundary
    constant: float


@dataclasses.dataclass(frozen=True)
class FusedSmemLayout:
    """Scratchpad plan for one block: all staged windows, packed."""

    buffers: dict[str, StagedBuffer]
    #: external buffer names in parameter/staging order
    externals: tuple[str, ...]
    #: total scratchpad bytes per block (the occupancy charge)
    total_bytes: int


def _bank_padded_stride(row_elems: int, warp_size: int) -> int:
    """Row stride avoiding whole-warp LDS bank conflicts.

    With ``warp_size`` banks of one word, a row length that is a multiple
    of the bank count puts every column of a warp-strided access in the
    same bank; the +1 pad staggers the rows (see the CUDA shared-memory
    guide). This is the one place the staged IR depends on warp width.
    """
    return row_elems + 1 if row_elems % warp_size == 0 else row_elems


def _live_stages(plan: FusedPlan) -> list[KernelDescription]:
    return [d for d in plan.descs if d.output_name in plan.live]


def _consumer_condition(
    plan: FusedPlan, live: list[KernelDescription], name: str
) -> tuple[Boundary, float]:
    """The one (boundary, constant) all checked readers of ``name`` share.

    Halo slots can hold only a single value, so every consumer that applies
    border checks must agree on the mapping. Point readers (UNDEFINED) are
    neutral: they only ever read in-range slots. With no checked reader at
    all the halo slots are provably unread and CLAMP merely keeps the
    staging addresses in bounds.
    """
    condition: Optional[tuple[Boundary, float]] = None
    for desc in live:
        for acc in desc.accessors:
            if acc.image.name != name or not acc.boundary.needs_checks:
                continue
            const = float(acc.constant or 0.0) \
                if acc.boundary is Boundary.CONSTANT else 0.0
            if condition is None:
                condition = (acc.boundary, const)
            elif condition != (acc.boundary, const):
                raise CompileError(
                    f"{plan.name}: {name} is read under inconsistent border "
                    f"conditions ({condition[0].value} vs "
                    f"{acc.boundary.value}); fused halo slots can hold only "
                    "one mapping"
                )
    return condition if condition is not None else (Boundary.CLAMP, 0.0)


def plan_fused_smem(
    plan: FusedPlan, block: tuple[int, int], warp_size: int = 32
) -> FusedSmemLayout:
    """Pack every staged window into one per-block scratchpad."""
    tx, ty = block
    live = _live_stages(plan)
    final_name = plan.output_name
    names = [n for n in plan.external_inputs if n in plan.halos]
    names += [d.output_name for d in live if d.output_name != final_name]

    buffers: dict[str, StagedBuffer] = {}
    offset = 0
    for name in names:
        hx, hy = plan.halos[name]
        w, h = tx + 2 * hx, ty + 2 * hy
        stride = _bank_padded_stride(w, warp_size)
        boundary, constant = _consumer_condition(plan, live, name)
        buffers[name] = StagedBuffer(
            name=name, halo=(hx, hy), window=(w, h), stride=stride,
            offset=offset, external=name in plan.external_inputs,
            boundary=boundary, constant=constant,
        )
        offset += stride * h * _element_bytes()
    externals = tuple(n for n in names if buffers[n].external)
    return FusedSmemLayout(buffers=buffers, externals=externals,
                           total_bytes=offset)


def fused_smem_bytes(
    plan: FusedPlan, block: tuple[int, int], warp_size: int = 32
) -> int:
    """Per-block scratchpad footprint of the fused megakernel."""
    return plan_fused_smem(plan, block, warp_size).total_bytes


def _element_bytes() -> int:
    # Imported lazily: repro.runtime pulls in the executor, which imports
    # this package back.
    from ..runtime.make_border import ELEMENT_BYTES

    return ELEMENT_BYTES


# ---------------------------------------------------------------------------
# Lowering helpers
# ---------------------------------------------------------------------------


def _slot_addr(b: IRBuilder, smem_base: Register, buf: StagedBuffer,
               sx, sy) -> Register:
    """Byte address of window slot (sx, sy) inside the scratchpad."""
    with b.role("addr"):
        idx = b.mad(sy, b.imm(buf.stride, DataType.S32), sx)
        byte = b.cvt(b.shl(idx, 2), DataType.U32)
        if buf.offset:
            byte = b.add(byte, b.imm(buf.offset, DataType.U32), DataType.U32)
        return b.add(smem_base, byte, DataType.U32)


class _FusedSmemLowering(RegionLowering):
    """Stage-body lowering where *every* access reads a shared window.

    The producing stage's window carries halo ``self.halo``; an input
    window carries a (cumulative) halo at least ``self.halo + |offset|``
    larger, so the tap at window slot ``(sx, sy)`` plus static delta
    ``(H_in - H_self) + (dx, dy)`` is in bounds by construction — no
    checks, no guards, plain ``lds``.
    """

    def __init__(self, *args, layout=None, smem_base=None, halo=None,
                 sx=None, sy=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.layout = layout
        self.smem_base = smem_base
        self.halo = halo
        self.sx = sx
        self.sy = sy

    def _lower_access(self, access):
        key = (id(access.accessor), access.dx, access.dy)
        memo = self._access_memo.get(key)
        if memo is not None:
            return memo
        b = self.b
        buf = self.layout.buffers[access.accessor.image.name]
        ddx = buf.halo[0] - self.halo[0] + access.dx
        ddy = buf.halo[1] - self.halo[1] + access.dy
        with b.role("addr"):
            ix = b.add(self.sx, ddx) if ddx else self.sx
            iy = b.add(self.sy, ddy) if ddy else self.sy
        addr = _slot_addr(b, self.smem_base, buf, ix, iy)
        with b.role("kernel"):
            value = b.lds(addr, DataType.F32)
        self._access_memo[key] = value
        return value


def _for_each_slot(b: IRBuilder, window: tuple[int, int],
                   block: tuple[int, int], tid_x: Register, tid_y: Register,
                   emit_slot) -> None:
    """Cooperative strided walk over a window: each thread visits
    ``ceil(w/tx) * ceil(h/ty)`` slots.

    The ragged last strip of each axis is *clamped* to the window edge
    instead of branch-guarded: the redirected thread recomputes an edge
    slot with the exact value it already holds, so the duplicate store is
    race-free — and every clone stays branchless, which keeps the static
    prover on one path per region seed instead of forking per strip."""
    w, h = window
    tx, ty = block
    for ry in range(math.ceil(h / ty)):
        for rx in range(math.ceil(w / tx)):
            with b.role("addr"):
                sx = b.add(tid_x, rx * tx) if rx else tid_x
                sy = b.add(tid_y, ry * ty) if ry else tid_y
                if (rx + 1) * tx > w:
                    sx = b.min(sx, w - 1)
                if (ry + 1) * ty > h:
                    sy = b.min(sy, h - 1)
            emit_slot(sx, sy)


# ---------------------------------------------------------------------------
# Megakernel generation
# ---------------------------------------------------------------------------


def _repeat_closure_check(plan: FusedPlan, live: list[KernelDescription],
                          layout: FusedSmemLayout) -> None:
    """A stage whose output is wrapped (REPEAT-consumed) must read all of
    its own inputs with REPEAT: only then does ``out[c mod N]`` equal the
    extended-window value at ``c`` (mod commutes with translation but not
    with clamping/mirroring)."""
    final_name = plan.output_name
    for desc in live:
        if desc.output_name == final_name:
            continue
        if layout.buffers[desc.output_name].boundary is not Boundary.REPEAT:
            continue
        for acc in desc.accessors:
            if acc.boundary is not Boundary.REPEAT:
                raise CompileError(
                    f"{plan.name}: stage {desc.name} feeds a REPEAT consumer "
                    f"but reads {acc.image.name} with {acc.boundary.value}; "
                    "wraparound does not commute through that mapping"
                )


def generate_fused_simt(
    plan: FusedPlan, block: tuple[int, int], *, warp_size: int = 32,
    variant: Variant = Variant.FUSED,
) -> KernelFunction:
    """Lower a plan to the per-block halo-staging kernel of ``variant``:
    region-switched clones, or for ``SHARED`` one fully checked clone."""
    tx, ty = block
    width, height = plan.width, plan.height
    if width % tx or height % ty:
        raise CompileError(
            f"{plan.name}: {variant.value} staging requires the grid to tile "
            f"the image exactly ({width}x{height} vs block {tx}x{ty}) — "
            "bar.sync forbids early-exit guards"
        )

    layout = plan_fused_smem(plan, block, warp_size)
    live = _live_stages(plan)
    final = plan.descs[-1]
    _repeat_closure_check(plan, live, layout)

    hx_max = max((buf.halo[0] for buf in layout.buffers.values()), default=0)
    hy_max = max((buf.halo[1] for buf in layout.buffers.values()), default=0)
    geom = None
    if variant is not Variant.SHARED:
        geom = RegionGeometry.compute(width, height, hx_max, hy_max, block)
        if geom.degenerate:
            raise CompileError(
                f"{plan.name}: degenerate {variant.value} geometry for "
                f"{width}x{height} with halo ({hx_max}, {hy_max}) and "
                f"block {block}"
            )

    # -------------------------------------------------- params & prologue
    params_list: list[Param] = []
    for name in layout.externals:
        params_list.append(Param(f"{name}_ptr", DataType.U32,
                                 is_pointer=True, elem_dtype=DataType.F32))
        params_list.append(Param(f"{name}_w", DataType.S32))
        params_list.append(Param(f"{name}_h", DataType.S32))
    params_list.append(Param("out_ptr", DataType.U32, is_pointer=True,
                             elem_dtype=DataType.F32))
    params_list.append(Param("out_w", DataType.S32))
    params_list.append(Param("out_h", DataType.S32))
    params_list.append(Param("smem_base", DataType.U32, is_pointer=True,
                             elem_dtype=DataType.F32))

    b = IRBuilder(f"{plan.name}_{variant.value}", params_list)
    b.new_block("entry")
    with b.role("addr"):
        bases = {n: b.ld_param(f"{n}_ptr") for n in layout.externals}
        out_base = b.ld_param("out_ptr")
        out_w = b.ld_param("out_w")
        out_h = b.ld_param("out_h")
        smem_base = b.ld_param("smem_base")
    # Every staged image shares the output geometry (fuse_descs validates
    # it), so out_w/out_h serve as the size operand of every border check.
    params = KernelParams(
        bases=bases,
        widths={n: out_w for n in layout.externals},
        heights={n: out_h for n in layout.externals},
        out_base=out_base, out_width=out_w, out_height=out_h,
    )
    x, y = emit_coordinates(b)
    exit_label = "kernel_exit"

    with b.role("addr"):
        tid_x = b.special(SpecialReg.TID_X)
        tid_y = b.special(SpecialReg.TID_Y)
        ctaid_x = b.special(SpecialReg.CTAID_X)
        ctaid_y = b.special(SpecialReg.CTAID_Y)

    axis_checks = set()
    if hx_max > 0:
        axis_checks |= {"left", "right"}
    if hy_max > 0:
        axis_checks |= {"top", "bottom"}

    # ------------------------------------------------------ clone emission

    def buffer_sides(buf: StagedBuffer, sides: frozenset[str]) -> frozenset[str]:
        """Region sides that can actually cut this buffer's window."""
        keep = set()
        if buf.halo[0] > 0:
            keep |= {"left", "right"}
        if buf.halo[1] > 0:
            keep |= {"top", "bottom"}
        return frozenset(sides & keep)

    def window_origin(buf: StagedBuffer) -> tuple[Register, Register]:
        with b.role("addr"):
            ox = b.sub(b.mul(ctaid_x, tx), buf.halo[0])
            oy = b.sub(b.mul(ctaid_y, ty), buf.halo[1])
        return ox, oy

    def emit_external_staging(buf: StagedBuffer, sides: frozenset[str],
                              consts: dict) -> None:
        ox, oy = window_origin(buf)

        def stage_slot(sx, sy):
            with b.role("addr"):
                gx = b.add(ox, sx)
                gy = b.add(oy, sy)
            bx = emit_axis_checks(
                b, gx, out_w, buf.boundary,
                check_low="left" in sides, check_high="right" in sides,
                consts=consts,
            )
            by = emit_axis_checks(
                b, gy, out_h, buf.boundary,
                check_low="top" in sides, check_high="bottom" in sides,
                consts=consts,
            )
            valid = combine_valid(b, bx.valid, by.valid)
            with b.role("addr"):
                gidx = b.mad(by.coord, out_w, bx.coord)
                gaddr = b.add(bases[buf.name],
                              b.cvt(b.shl(gidx, 2), DataType.U32),
                              DataType.U32)
            with b.role("kernel"):
                val = b.ld(gaddr, DataType.F32)
                if valid is not None:
                    val = b.selp(valid, val,
                                 b.imm(buf.constant, DataType.F32))
            saddr = _slot_addr(b, smem_base, buf, sx, sy)
            with b.role("kernel"):
                b.sts(saddr, val, DataType.F32)

        _for_each_slot(b, buf.window, block, tid_x, tid_y, stage_slot)

    def emit_stage_compute(desc: KernelDescription, buf: StagedBuffer,
                           guard_sides: frozenset[str]) -> None:
        """Evaluate one intermediate stage into its window. With
        ``guard_sides`` the evaluation covers in-range slots only (halo
        slots are filled afterwards); without, the whole extended window
        (the REPEAT shape).

        "In-range only" is again expressed by clamping, not branching:
        the in-range slots form a rectangle (it contains the output tile,
        so it is never empty), and a thread whose slot falls outside it
        recomputes the nearest in-range slot instead — same inputs, same
        value, race-free duplicate store, no control flow."""
        w, h = buf.window
        ox, oy = window_origin(buf)
        lo_x = hi_x = lo_y = hi_y = None
        if guard_sides:
            with b.role("check"):
                if "left" in guard_sides:
                    lo_x = b.neg(ox)
                if "right" in guard_sides:
                    hi_x = b.sub(b.sub(out_w, 1), ox)
                if "top" in guard_sides:
                    lo_y = b.neg(oy)
                if "bottom" in guard_sides:
                    hi_y = b.sub(b.sub(out_h, 1), oy)

        def compute_slot(sx, sy):
            if guard_sides:
                with b.role("check"):
                    if lo_x is not None:
                        sx = b.max(sx, lo_x)
                    if hi_x is not None:
                        sx = b.min(sx, hi_x)
                    if lo_y is not None:
                        sy = b.max(sy, lo_y)
                    if hi_y is not None:
                        sy = b.min(sy, hi_y)
                    # Syntactic window bound for the prover (identity: the
                    # in-range rectangle is inside the window).
                    sx = b.min(b.max(sx, 0), w - 1)
                    sy = b.min(b.max(sy, 0), h - 1)
            lowering = _FusedSmemLowering(
                b, desc, params, None, None, frozenset(),
                layout=layout, smem_base=smem_base, halo=buf.halo,
                sx=sx, sy=sy,
            )
            value = lowering.lower(desc.expr)
            saddr = _slot_addr(b, smem_base, buf, sx, sy)
            with b.role("kernel"):
                b.sts(saddr, value, DataType.F32)

        _for_each_slot(b, buf.window, block, tid_x, tid_y, compute_slot)

    def emit_halo_fill(buf: StagedBuffer, sides: frozenset[str],
                       consts: dict) -> None:
        """``slot[c] <- slot[m(c)]`` over the whole window: the consumer's
        border mapping applied on-chip. In-range slots copy themselves
        (the checks are identity there), so no slot ever changes value and
        the unguarded pass is race-free across warps."""
        w, h = buf.window
        ox, oy = window_origin(buf)

        def fill_slot(sx, sy):
            with b.role("addr"):
                vx = b.add(ox, sx)
                vy = b.add(oy, sy)
            bx = emit_axis_checks(
                b, vx, out_w, buf.boundary,
                check_low="left" in sides, check_high="right" in sides,
                consts=consts,
            )
            by = emit_axis_checks(
                b, vy, out_h, buf.boundary,
                check_low="top" in sides, check_high="bottom" in sides,
                consts=consts,
            )
            valid = combine_valid(b, bx.valid, by.valid)
            with b.role("check"):
                # Identity clamps: m(c) provably lands in the window, but
                # the prover's intervals cannot cancel the two ctaid terms
                # in (m(c) - origin); the clamp makes the bound syntactic
                # without changing any value (same trick CONSTANT uses for
                # its dummy address).
                px = b.min(b.max(b.sub(bx.coord, ox), 0), w - 1)
                py = b.min(b.max(b.sub(by.coord, oy), 0), h - 1)
            src = _slot_addr(b, smem_base, buf, px, py)
            with b.role("kernel"):
                val = b.lds(src, DataType.F32)
                if valid is not None:
                    val = b.selp(valid, val,
                                 b.imm(buf.constant, DataType.F32))
            dst = _slot_addr(b, smem_base, buf, sx, sy)
            with b.role("kernel"):
                b.sts(dst, val, DataType.F32)

        _for_each_slot(b, buf.window, block, tid_x, tid_y, fill_slot)

    def emit_clone(sides: frozenset[str], tag: str) -> None:
        consts: dict = {}
        with b.region(tag):
            for name in layout.externals:
                buf = layout.buffers[name]
                emit_external_staging(buf, buffer_sides(buf, sides), consts)
            with b.role("kernel"):
                b.bar()
            for desc in live:
                if desc is final or desc.output_name == plan.output_name:
                    continue
                buf = layout.buffers[desc.output_name]
                if buf.boundary is Boundary.REPEAT:
                    # Extended-domain evaluation: every slot, no checks.
                    emit_stage_compute(desc, buf, frozenset())
                    with b.role("kernel"):
                        b.bar()
                else:
                    fill = buffer_sides(buf, sides)
                    emit_stage_compute(desc, buf, fill)
                    with b.role("kernel"):
                        b.bar()
                    if fill:
                        emit_halo_fill(buf, fill, consts)
                        with b.role("kernel"):
                            b.bar()
            # Final stage: one pixel per thread, all inputs on-chip.
            lowering = _FusedSmemLowering(
                b, final, params, x, y, frozenset(),
                layout=layout, smem_base=smem_base, halo=(0, 0),
                sx=tid_x, sy=tid_y,
            )
            value = lowering.lower(final.expr)
            lowering.store_output(value)
            b.br(exit_label)

    if geom is None:
        # SHARED: every block takes the one clone that checks every side.
        emit_clone(frozenset(axis_checks), "naive")
    else:
        feasible = geom.feasible_regions()
        emit_set = set(feasible) | {Region.BODY}
        emit_regions = [r for r in SWITCH_ORDER if r in emit_set]
        labels = {r: f"region_{r.value.lower()}" for r in emit_regions}
        with b.role("switch"):
            _emit_switch_chain(b, geom, labels, set(feasible), ctaid_x,
                               ctaid_y, None, block, warp_size=warp_size)
        for region in emit_regions:
            b.new_block(labels[region])
            emit_clone(frozenset(REGION_CHECKS[region] & axis_checks),
                       region.value)

    b.new_block(exit_label)
    b.exit()
    func = b.finish()
    func.metadata.update(
        variant=variant,
        block=block,
        grid=grid_for(width, height, block),
        geometry=geom,
        shared_bytes=layout.total_bytes,
        warp_size=warp_size,
        fused_layout=layout,
        fused_stages=tuple(d.name for d in live),
    )
    return func


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class CompiledFusedKernel:
    """A fused megakernel ready to launch: one kernel for the whole plan."""

    plan: FusedPlan
    func: KernelFunction
    block: tuple[int, int]
    launch_config: LaunchConfig
    geometry: RegionGeometry
    layout: FusedSmemLayout
    registers: Optional[RegisterEstimate] = None
    variant: Variant = Variant.FUSED
    effective_variant: Variant = Variant.FUSED

    @property
    def name(self) -> str:
        return self.func.name

    @property
    def desc(self) -> KernelDescription:
        """The stage whose output the megakernel writes (the last one)."""
        return self.plan.descs[-1]

    def param_values(self, image_bases: dict[str, int]) -> dict[str, int]:
        """Launch parameters: external input pointers plus the output."""
        values: dict[str, int] = {}
        for name in self.layout.externals:
            values[f"{name}_ptr"] = image_bases[name]
            values[f"{name}_w"] = self.plan.width
            values[f"{name}_h"] = self.plan.height
        values["out_ptr"] = image_bases[self.plan.output_name]
        values["out_w"] = self.plan.width
        values["out_h"] = self.plan.height
        return values


def compile_fused_simt(
    plan: FusedPlan,
    *,
    block: tuple[int, int] = (32, 4),
    device: Optional[DeviceSpec] = None,
    optimize: bool = True,
) -> CompiledFusedKernel:
    """Compile a fused plan into the halo-staging SIMT megakernel.

    Raises :class:`CompileError` where the shape is unsound (degenerate
    geometry, non-exact tiling, inconsistent/uncommuting border
    conditions) or does not fit (scratchpad over the device limit) —
    callers fall back to the per-stage staged path. A single-stage plan
    is refused too: it has nothing to fuse, and staged NAIVE compiles it
    at a fraction of the megakernel's cost (its staging shape is
    ``Variant.SHARED_ISP``, reached through ``compile_kernel``).
    """
    if len(plan.descs) < 2:
        raise CompileError(
            f"{plan.name}: single-stage plans have nothing to fuse"
        )
    warp_size = device.warp_size if device is not None else 32
    func = generate_fused_simt(plan, block, warp_size=warp_size)
    shared_bytes = func.metadata["shared_bytes"]
    if device is not None and shared_bytes > device.shared_mem_per_sm:
        raise CompileError(
            f"{plan.name}: fused scratchpad ({shared_bytes} B/block) "
            f"exceeds {device.name} shared memory "
            f"({device.shared_mem_per_sm} B/SM)"
        )
    if optimize:
        run_passes(func)
    verify(func)
    regs = estimate_registers(func, device)
    cfg = LaunchConfig.for_image(plan.width, plan.height, block,
                                 warp_size=warp_size)
    return CompiledFusedKernel(
        plan=plan,
        func=func,
        block=block,
        launch_config=cfg,
        geometry=func.metadata["geometry"],
        layout=func.metadata["fused_layout"],
        registers=regs,
    )
