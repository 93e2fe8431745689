"""End-to-end runtime: functional simulation, profiling, and timing.

Three services on top of the compiler and the GPU simulator:

* :func:`run_pipeline_simt` — full functional SIMT simulation of a pipeline
  (every block of every kernel); used by the correctness tests against the
  NumPy references. Feasible for small images. It runs on
  :func:`launch_stages`, the one runner that sizes simulated memory, writes
  the inputs and launches a list of compiled kernels — staged or fused —
  for every full simulation (the serve plans' ``execute_simt`` and the
  sanitizer's differential use it too).
* :func:`profile_pipeline` / :func:`measure_pipeline` — *representative-block
  profiling*: the grid is partitioned into fine block classes (one class per
  distinct border row/column combination, interior collapsed), exactly one
  block per class is simulated, and its counters are scaled by the class's
  block count (paper Eq. 8 made exact). The resulting per-class cycle costs
  feed :func:`repro.gpu.timing.estimate_time`. Because the per-class counts
  are independent of the image size (for non-degenerate geometry), profiles
  are cached and reused across image sizes and across devices that share a
  warp width (the cache key carries ``device.warp_size``).
* :func:`select_variants` — the paper's ``isp+m``: per kernel, ask the
  analytic model (:mod:`repro.model`) whether ISP pays off and pick the
  predicted-faster variant.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from typing import Optional

import numpy as np

from ..compiler.driver import CompiledKernel, compile_kernel
from ..compiler.frontend import KernelDescription, trace_kernel
from ..compiler.fusion_simt import CompiledFusedKernel
from ..compiler.isp import Variant
from ..compiler.regions import Region, RegionGeometry
from ..dsl.pipeline import Pipeline
from ..faults import core as _faults
from ..faults.core import FaultError
from ..gpu.cost import cost_table_for
from ..gpu.device import DeviceSpec, GTX680
from ..gpu.memory import GlobalMemory
from ..gpu.profiler import BlockProfile, Profiler
from ..gpu.launch import LaunchConfig, launch
from ..gpu.timing import TimingEstimate, estimate_time
from ..ir.types import DataType
from ..trace import core as _trace_core
from .vectorized import _bind_inputs

# ---------------------------------------------------------------------------
# Functional SIMT simulation
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class SimulationResult:
    """Outcome of a functional pipeline simulation: every input and
    produced image by name, the launched kernels, and one profiler per
    launch (``None`` for an unprofiled one)."""

    images: dict[str, np.ndarray]
    compiled: list[CompiledKernel | CompiledFusedKernel]
    profilers: list[Optional[Profiler]]

    @property
    def output(self) -> np.ndarray:
        return self.images["out"]


def launch_stages(
    stages: list[tuple[str, str, CompiledKernel | CompiledFusedKernel]],
    inputs: dict[str, np.ndarray],
    *,
    device: Optional[DeviceSpec] = None,
    memory_bytes: Optional[int] = None,
    shadow: bool = False,
    abort: Optional[threading.Event] = None,
) -> SimulationResult:
    """Launch compiled kernels back to back on one simulated memory.

    ``stages`` lists ``(name, variant, kernel)`` in launch order. Each
    kernel — a :class:`CompiledKernel` or a fused megakernel — writes the
    image ``kernel.desc.output_name``, which later kernels may read. Memory
    holds the inputs plus one output per kernel, sized to fit unless
    ``memory_bytes`` is given; ``shadow`` runs it in shadow-OOB mode (see
    :class:`repro.gpu.memory.GlobalMemory`). With ``device``, every launch
    runs under its own :class:`Profiler` on that device's cost table and,
    when tracing, records a ``launch:<name>`` span carrying ``variant`` and
    the profiler's counters; without one, kernels launch unprofiled.
    ``abort`` is polled by the wave executor.
    """
    kernels = [k for _, _, k in stages]
    if memory_bytes is None:
        n_images = len(kernels) + len(inputs)
        px = max(k.desc.width * k.desc.height for k in kernels)
        slack = (n_images + 2) * 256 + 4096  # alignment + shadow redzones
        memory_bytes = 1 << max(
            16, math.ceil(math.log2((n_images + 2) * px * 4 + slack))
        )
    mem = GlobalMemory(memory_bytes, shadow=shadow)

    images = dict(inputs)
    bases: dict[str, int] = {}
    for name, arr in images.items():
        bases[name] = mem.alloc(arr.size * 4)
        mem.write_array(bases[name], arr)

    profilers: list[Optional[Profiler]] = []
    for name, variant, k in stages:
        desc = k.desc
        bases[desc.output_name] = mem.alloc(desc.width * desc.height * 4)
        prof = Profiler(cost_table_for(device)) if device is not None else None
        t_launch = time.perf_counter()
        launch(k.func, k.launch_config, mem, k.param_values(bases), prof,
               abort=abort)
        if prof is not None and _trace_core._current is not None:
            ctx = _trace_core.current_context()
            if ctx is not None:
                tracer, parent = ctx
                tracer.record_span(
                    f"launch:{name}", parent,
                    t_launch, time.perf_counter(),
                    variant=variant,
                    warp_instructions=prof.warp_instructions,
                    regions=prof.region_totals(),
                    events=prof.event_totals(),
                )
        images[desc.output_name] = mem.read_array(
            bases[desc.output_name], (desc.height, desc.width), DataType.F32
        )
        profilers.append(prof)
    return SimulationResult(images=images, compiled=kernels,
                            profilers=profilers)


def run_pipeline_simt(
    pipeline: Pipeline,
    *,
    variant: Variant = Variant.NAIVE,
    block: tuple[int, int] = (32, 4),
    device: DeviceSpec = GTX680,
    inputs: Optional[dict[str, np.ndarray]] = None,
    memory_bytes: Optional[int] = None,
    shadow_oob: bool = False,
) -> SimulationResult:
    """Functionally simulate every stage of ``pipeline`` on the GPU model.

    ``shadow_oob`` runs the simulated memory in shadow mode: allocations get
    redzones and every lane address must hit a live allocation, so an
    out-of-bounds border access traps even when it would land inside another
    image's buffer (see :class:`repro.gpu.memory.GlobalMemory`).
    """
    images = _bind_inputs(pipeline, inputs)
    stages = []
    for kernel in pipeline:
        desc = trace_kernel(kernel)
        if _faults._current is not None:
            # Fault point: per-kernel SIMT launch — "latency" models a
            # co-tenant stall, "error" a failed launch.
            act = _faults.fire("runtime.executor.kernel", kernel=desc.name)
            if act is not None:
                if act.kind == "latency":
                    act.sleep()
                else:
                    raise FaultError("runtime.executor.kernel", act.kind)
        ck = compile_kernel(desc, variant=variant, block=block, device=device)
        stages.append((desc.name, ck.effective_variant.value, ck))
    return launch_stages(stages, images, device=device,
                         memory_bytes=memory_bytes, shadow=shadow_oob)


# ---------------------------------------------------------------------------
# Fine block classes for representative profiling
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FineClass:
    """One equivalence class of blocks with identical dynamic behaviour.

    Border block rows/columns are distinguished individually (their distance
    to the border differs, which matters for Repeat's loop trip counts); all
    interior rows/columns collapse into one "M" class.
    """

    name: str
    representative: tuple[int, int]
    count: int
    region: Region


def fine_block_classes(geom: RegionGeometry) -> list[FineClass]:
    """Partition the grid into fine classes (exact, size-independent)."""
    gx, gy = geom.grid

    def axis_classes(low: int, high: int, total: int, axis: str):
        # (key, example index, column/row count)
        out = []
        for i in range(low):
            out.append((f"{axis}L{i}", i, 1))
        if high > low:
            out.append((f"{axis}M", low, high - low))
        for j in range(high, total):
            out.append((f"{axis}R{total - j}", j, 1))
        return out

    cols = axis_classes(geom.bh_l, geom.bh_r, gx, "x")
    rows = axis_classes(geom.bh_t, geom.bh_b, gy, "y")
    classes = []
    for rkey, rex, rcount in rows:
        for ckey, cex, ccount in cols:
            name = f"{ckey}|{rkey}"
            rep = (cex, rex)
            classes.append(
                FineClass(
                    name=name,
                    representative=rep,
                    count=ccount * rcount,
                    region=geom.classify(*rep),
                )
            )
    assert sum(c.count for c in classes) == gx * gy
    return classes


# ---------------------------------------------------------------------------
# Representative-block profiling (cached)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class KernelProfile:
    """Per-class block profiles + class counts for one compiled kernel."""

    compiled: CompiledKernel
    classes: list[FineClass]
    profiles: dict[str, BlockProfile]

    def total_blocks(self) -> int:
        return sum(c.count for c in self.classes)

    def class_cycles(self, device: DeviceSpec) -> dict[str, float]:
        table = cost_table_for(device)
        return {c.name: self.profiles[c.name].cycles_on(table) for c in self.classes}

    def class_counts(self) -> dict[str, int]:
        return {c.name: c.count for c in self.classes}

    def mem_issue_fraction(self, device: DeviceSpec) -> float:
        table = cost_table_for(device)
        total = mem = 0.0
        for c in self.classes:
            p = self.profiles[c.name]
            total += c.count * p.cycles_on(table)
            mem += c.count * p.mem_cycles_on(table)
        return min(1.0, mem / total) if total else 0.0

    def total_issue_cycles(self, device: DeviceSpec) -> float:
        cycles = self.class_cycles(device)
        return sum(cycles[c.name] * c.count for c in self.classes)

    def region_keyword_counts(self) -> dict[Region, dict[str, int]]:
        """Dynamic keyword counts of one representative block per *paper*
        region (Table I's unit of reporting). When several fine classes map
        to one region, the first (outermost) is reported."""
        out: dict[Region, dict[str, int]] = {}
        for c in self.classes:
            if c.region not in out:
                out[c.region] = dict(self.profiles[c.name].by_keyword)
        return out

    def timing(self, device: DeviceSpec) -> TimingEstimate:
        regs = self.compiled.registers
        return estimate_time(
            device,
            total_blocks=self.total_blocks(),
            block_threads=self.compiled.launch_config.threads_per_block,
            regs_per_thread=regs.allocated if regs else 32,
            class_block_cycles=self.class_cycles(device),
            class_block_counts=self.class_counts(),
            mem_issue_fraction=self.mem_issue_fraction(device),
            spill_factor=regs.spill_factor if regs else 1.0,
            shared_bytes=int(self.compiled.func.metadata.get("shared_bytes", 0)),
        )


def _profile_cache_key(desc: KernelDescription, variant: Variant,
                       block: tuple[int, int], warp_size: int) -> tuple:
    boundaries = tuple(
        sorted((a.image.name, a.boundary.value) for a in desc.accessors)
    )
    n_nodes = sum(1 for _ in _walk_expr(desc))
    from ..compiler.lowering import needs_bounds_guard

    return (
        desc.name,
        boundaries,
        desc.extent,
        n_nodes,
        variant.value,
        block,
        # Warp width changes both the generated code (warp-grained dispatch)
        # and the block's warp decomposition, so a warp32 profile must never
        # be reused for a wave64 device.
        warp_size,
        needs_bounds_guard(desc.width, desc.height, block),
    )


def _walk_expr(desc: KernelDescription):
    from ..dsl.expr import walk

    return walk(desc.expr)


_PROFILE_CACHE: dict[tuple, dict[str, BlockProfile]] = {}


def clear_profile_cache() -> None:
    _PROFILE_CACHE.clear()


def profile_kernel(
    desc: KernelDescription,
    *,
    variant: Variant = Variant.NAIVE,
    block: tuple[int, int] = (32, 4),
    device: DeviceSpec = GTX680,
    use_cache: bool = True,
) -> KernelProfile:
    """Representative-block profile of one kernel variant.

    The compiled kernel is always produced for the *requested* geometry; only
    the per-class block counters are cached/reused across image sizes, which
    is sound because a block's dynamic behaviour depends only on its position
    relative to the borders (its fine class), not on the image size.
    """
    ck = compile_kernel(desc, variant=variant, block=block, device=device)

    hx, hy = desc.extent
    geom = ck.geometry
    if geom is None:
        geom = RegionGeometry.compute(desc.width, desc.height, hx, hy, block)
    if geom.degenerate:
        raise ValueError(
            f"{desc.name}: degenerate geometry at {desc.width}x{desc.height} "
            f"block {block} — representative profiling unsupported"
        )
    classes = fine_block_classes(geom)

    key = _profile_cache_key(desc, ck.effective_variant, block,
                             device.warp_size)
    cached = _PROFILE_CACHE.get(key) if use_cache else None
    if cached is not None and all(c.name in cached for c in classes):
        return KernelProfile(compiled=ck, classes=classes, profiles=cached)

    # Execute one block per class against zero-filled images (counts do not
    # depend on pixel values: the kernels have no data-dependent branches on
    # image content).
    mem = GlobalMemory(_memory_size_for(desc))
    bases: dict[str, int] = {}
    for acc in desc.accessors:
        img = acc.image
        if img.name not in bases:
            bases[img.name] = mem.alloc(img.width * img.height * 4)
    bases[desc.output_name] = mem.alloc(desc.width * desc.height * 4)
    params = ck.param_values(bases)

    prof = Profiler(cost_table_for(device))
    blocks = [(c.representative, c.name) for c in classes]
    launch(ck.func, ck.launch_config, mem, params, prof, blocks=blocks)
    profiles = {bp.block_class: bp for bp in prof.block_profiles}
    if use_cache:
        _PROFILE_CACHE[key] = profiles
    return KernelProfile(compiled=ck, classes=classes, profiles=profiles)


def _memory_size_for(desc: KernelDescription) -> int:
    names = {a.image.name for a in desc.accessors} | {desc.output_name}
    need = (len(names) + 1) * desc.width * desc.height * 4 + 8192
    return 1 << max(16, math.ceil(math.log2(need)))


# ---------------------------------------------------------------------------
# Pipeline measurement (the simulator's NVProf numbers)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class KernelMeasurement:
    name: str
    requested_variant: Variant
    effective_variant: Variant
    timing: TimingEstimate
    profile: KernelProfile


@dataclasses.dataclass
class PipelineMeasurement:
    pipeline: str
    device: str
    variant: Variant
    kernels: list[KernelMeasurement]

    @property
    def total_us(self) -> float:
        return sum(k.timing.time_us for k in self.kernels)


def measure_pipeline(
    pipeline: Pipeline,
    *,
    variant: Variant = Variant.NAIVE,
    block: tuple[int, int] = (32, 4),
    device: DeviceSpec = GTX680,
    per_kernel_variants: Optional[dict[str, Variant]] = None,
) -> PipelineMeasurement:
    """Estimate execution time of every stage under one variant policy.

    ``per_kernel_variants`` overrides the variant per kernel name — used by
    the ``isp+m`` policy where the model picks naive or ISP per kernel.
    """
    measurements = []
    for kernel in pipeline:
        desc = trace_kernel(kernel)
        v = variant
        if per_kernel_variants and desc.name in per_kernel_variants:
            v = per_kernel_variants[desc.name]
        prof = profile_kernel(desc, variant=v, block=block, device=device)
        measurements.append(
            KernelMeasurement(
                name=desc.name,
                requested_variant=v,
                effective_variant=prof.compiled.effective_variant,
                timing=prof.timing(device),
                profile=prof,
            )
        )
    return PipelineMeasurement(
        pipeline=pipeline.name,
        device=device.name,
        variant=variant,
        kernels=measurements,
    )


def select_variants(
    pipeline: Pipeline,
    *,
    block: tuple[int, int] = (32, 4),
    device: DeviceSpec = GTX680,
) -> dict[str, Variant]:
    """The paper's ``isp+m`` policy: per kernel, use the analytic model's
    prediction ``G`` (Eq. 10) to choose between NAIVE and ISP."""
    from ..model.prediction import predict_kernel

    choices: dict[str, Variant] = {}
    for kernel in pipeline:
        desc = trace_kernel(kernel)
        if not desc.needs_border_handling:
            choices[desc.name] = Variant.NAIVE
            continue
        prediction = predict_kernel(desc, block=block, device=device)
        choices[desc.name] = Variant.ISP if prediction.use_isp else Variant.NAIVE
    return choices
