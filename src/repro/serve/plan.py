"""Execution plans: everything per-workload planning produces, made reusable.

A *plan* is the artifact the serve engine caches: the traced kernel
descriptions of one application pipeline plus the per-kernel variant decision
(the paper's ``isp+m`` model choice), bound to one geometry/pattern/device.
Building a plan is the expensive part of a request — tracing, and for
``isp+m`` the analytic model (which compiles *both* the naive and the ISP
variants of every bordered kernel to get register counts, Eq. 10) — while
executing one is a tape pass per stage over a few tiles.
The whole point of :mod:`repro.serve` is to pay the former once per distinct
workload and the latter once per request.

Plan keys are content hashes (:meth:`KernelDescription.stable_digest`), not
``id()``-derived: two requests that describe the same computation hit the
same cache line even when their descriptions come from separate traces.

Resolving a warm request does no tracing: :func:`trace_app` memoizes the
traced descriptions per request signature, once per process, and each
description memoizes its digest, so a plan-cache hit costs a few dict
lookups and one SHA-256 over a few 32-character digests.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import time
import threading
from typing import Optional, Sequence

import numpy as np

from ..compiler.driver import CompiledKernel, compile_kernel
from ..compiler.frontend import KernelDescription, trace_kernel
from ..compiler.fusion import FusedPlan, fuse_descs
from ..compiler.fusion_simt import CompiledFusedKernel, compile_fused_simt
from ..compiler.isp import CompileError, Variant
from ..dsl.boundary import Boundary
from ..gpu.device import DeviceSpec, GTX680
from ..runtime.executor import launch_stages
from ..runtime.vectorized import run_kernel_vectorized

#: Variant policies a plan can be built with (mirrors the measurement
#: harness, plus the warp-grained shape of paper Listing 5, the raw-speed
#: pre-padded mode, and fused overlapped-tile pipeline execution).
PLAN_VARIANTS = ("naive", "isp", "isp_warp", "prepad", "fused", "isp+m")

#: What a *request* may ask for: any buildable plan variant, or ``"auto"`` —
#: let the engine's autotuner (model prior + measured trials) decide.
REQUEST_VARIANTS = PLAN_VARIANTS + ("auto",)

#: Execution backends the engine can dispatch to.
EXEC_MODES = ("vectorized", "simt")

#: The host schedule (:func:`repro.runtime.vectorized.schedule`) each staged
#: variant runs. Warp-aligned cuts (paper Listing 5) partition threadblocks,
#: which the host does not have, so an ``isp_warp`` stage runs the ``isp``
#: schedule; its SIMT kernel is still ``Variant.ISP_WARP``.
_HOST_SCHEDULES = {
    "naive": "naive",
    "isp": "isp",
    "isp_warp": "isp",
    "prepad": "prepad",
}


@dataclasses.dataclass(frozen=True)
class PlanKey:
    """Cache key: kernel-description hash x variant x pattern x geometry x device."""

    digest: str
    variant: str
    pattern: str
    width: int
    height: int
    device: str
    block: tuple[int, int]

    def short(self) -> str:
        return (f"{self.digest[:10]}/{self.variant}/{self.pattern}/"
                f"{self.width}x{self.height}/{self.device}")


def combined_digest(descs: Sequence[KernelDescription]) -> str:
    """Stable digest of a whole pipeline (order-sensitive)."""
    payload = "|".join(d.stable_digest() for d in descs)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


#: Request signatures whose traces :func:`trace_app` keeps, least recently
#: used evicted first. Larger than the plan cache's default capacity (64);
#: an evicted signature is simply traced again.
TRACE_MEMO_SIZE = 256

_TRACES: collections.OrderedDict[tuple, tuple[KernelDescription, ...]] = (
    collections.OrderedDict()
)
_TRACES_LOCK = threading.Lock()


def clear_trace_cache() -> None:
    """Forget every memoized trace, so the next :func:`trace_app` of each
    signature traces afresh."""
    with _TRACES_LOCK:
        _TRACES.clear()


def trace_app(
    app: str, pattern: str, width: int, height: int, constant: float = 0.0
) -> tuple[KernelDescription, ...]:
    """Build + trace one registered application pipeline, once per signature.

    A trace takes 0.15–0.85 ms at 64² (gaussian to night), as long as a warm
    request's execution, so it is memoized per process on ``(app, pattern,
    width, height, constant)``: tracing is pure in those, and every caller —
    the engine, the router, the tuner — shares one immutable tuple of
    descriptions per signature. The constant is keyed by its ``repr``, the
    form :meth:`KernelDescription.stable_digest` hashes, so two constants
    share an entry exactly when they share a digest (``0.0`` and ``-0.0``
    do not).
    """
    key = (app, pattern, width, height, repr(constant))
    with _TRACES_LOCK:
        descs = _TRACES.get(key)
        if descs is not None:
            _TRACES.move_to_end(key)
            return descs
    from ..filters import PIPELINES

    if app not in PIPELINES:
        raise KeyError(f"unknown app {app!r}; have {sorted(PIPELINES)}")
    pipe = PIPELINES[app](width, height, Boundary(pattern), constant)
    traced = tuple(trace_kernel(k) for k in pipe)
    with _TRACES_LOCK:
        # Threads racing on one new signature all return the first entry.
        descs = _TRACES.setdefault(key, traced)
        _TRACES.move_to_end(key)
        while len(_TRACES) > TRACE_MEMO_SIZE:
            _TRACES.popitem(last=False)
    return descs


def plan_key(
    descs: Sequence[KernelDescription],
    *,
    variant: str,
    pattern: str,
    device: DeviceSpec = GTX680,
    block: tuple[int, int] = (32, 4),
) -> PlanKey:
    if variant not in PLAN_VARIANTS:
        raise ValueError(f"unknown plan variant {variant!r}; have {PLAN_VARIANTS}")
    return PlanKey(
        digest=combined_digest(descs),
        variant=variant,
        pattern=pattern,
        width=descs[-1].width,
        height=descs[-1].height,
        device=device.name,
        block=tuple(block),
    )


@dataclasses.dataclass
class ExecutionPlan:
    """One cached unit of planning: traced descs + per-kernel variant choices.

    ``kernel_variants`` maps each stage's output name (unique within a
    pipeline) to the stage's variant: the plan's own, or ``"naive"`` for a
    point operator, or the model's ``"isp"``/``"naive"`` under ``isp+m``.
    SIMT artifacts are compiled lazily on first SIMT execution and memoized
    on the plan (guarded by ``_simt_lock`` — plans are shared across worker
    threads).
    """

    key: PlanKey
    app: str
    descs: tuple[KernelDescription, ...]
    kernel_variants: dict[str, str]
    build_seconds: float
    device: DeviceSpec
    #: EMA of measured vectorized execution seconds (None until first run);
    #: the autotuner and ``stats()`` read it, :meth:`note_execution` writes it.
    measured_seconds: Optional[float] = None
    _measure_lock: threading.Lock = dataclasses.field(
        default_factory=threading.Lock, repr=False
    )
    _simt_lock: threading.Lock = dataclasses.field(
        default_factory=threading.Lock, repr=False
    )
    _simt_compiled: Optional[
        list[tuple[str, str, CompiledKernel | CompiledFusedKernel]]
    ] = dataclasses.field(default=None, repr=False)
    #: fused overlapped-tile schedule — present exactly when the plan was
    #: built with ``variant="fused"``; geometry-only, so one cached plan per
    #: pipeline digest serves every request and batch size
    fused_plan: Optional[FusedPlan] = dataclasses.field(
        default=None, repr=False
    )

    @property
    def variant(self) -> str:
        """The variant policy this plan was built under."""
        return self.key.variant

    def note_execution(self, seconds: float, *, alpha: float = 0.3) -> float:
        """Fold one measured vectorized execution into the plan's cost EMA."""
        with self._measure_lock:
            if self.measured_seconds is None:
                self.measured_seconds = float(seconds)
            else:
                self.measured_seconds += alpha * (
                    float(seconds) - self.measured_seconds
                )
            return self.measured_seconds

    @property
    def input_names(self) -> list[str]:
        """External input images: read by some stage, produced by none."""
        produced = {d.output_name for d in self.descs}
        seen: list[str] = []
        for d in self.descs:
            for acc in d.accessors:
                if acc.image.name not in produced and acc.image.name not in seen:
                    seen.append(acc.image.name)
        return seen

    @property
    def output_name(self) -> str:
        return self.descs[-1].output_name

    def stages(self) -> list[tuple[str, str]]:
        """(kernel name, chosen variant) per stage, for reporting."""
        return [(d.name, self.kernel_variants[d.output_name]) for d in self.descs]

    # ------------------------------------------------------------- execution

    def _bind_input(
        self, image: np.ndarray, *, batch: bool = False
    ) -> dict[str, np.ndarray]:
        names = self.input_names
        if len(names) != 1:
            raise ValueError(
                f"plan {self.key.short()} has inputs {names}; serve requests "
                "carry exactly one image"
            )
        arr = np.asarray(image, dtype=np.float32)
        expected = (self.key.height, self.key.width)
        if batch:
            if arr.ndim != 3 or arr.shape[-2:] != expected:
                raise ValueError(
                    f"batch image shape {arr.shape} != (N, *{expected})"
                )
        elif arr.shape != expected:
            raise ValueError(
                f"request image shape {arr.shape} != plan geometry {expected}"
            )
        return {names[0]: arr}

    def _run_stages(self, images: dict[str, np.ndarray]) -> np.ndarray:
        if self.fused_plan is not None:
            # One fused execution for the whole pipeline, over the fused
            # schedule's own (overlapped) tiles.
            from ..runtime.fused import run_fused

            return run_fused(self.fused_plan, images)
        # One pad cache per execution: prepad stages reuse padded buffers
        # across taps and stages of this call (and only this call — the
        # cache dies with the call, so nothing can go stale).
        pad_cache: dict = {}
        for desc in self.descs:
            images[desc.output_name] = run_kernel_vectorized(
                desc,
                images,
                variant=_HOST_SCHEDULES[self.kernel_variants[desc.output_name]],
                pad_cache=pad_cache,
            )
        return images[self.output_name]

    def execute(self, image: np.ndarray) -> np.ndarray:
        """Vectorized host execution of every stage under the plan's choices."""
        return self._run_stages(self._bind_input(image))

    def execute_batch(self, images: np.ndarray) -> np.ndarray:
        """Kernel-level batched execution: one ``(N, H, W)`` stack, one call.

        Every stage evaluates the whole batch in one tape pass (the leading
        axis rides through every window and op), so N same-signature
        requests pay the Python/plan overhead once instead of N times.
        Plans and their cache digests are batch-agnostic: the same cached
        plan serves N=1 and N=8 — batch size is an execution-time property,
        not part of plan identity.
        """
        return self._run_stages(self._bind_input(images, batch=True))

    def execute_simt(
        self,
        image: np.ndarray,
        *,
        abort: Optional[threading.Event] = None,
        collect: Optional[list] = None,
    ) -> np.ndarray:
        """Full functional SIMT simulation (slow; the engine guards it with a
        timeout and falls back to :meth:`execute`).

        ``abort`` is polled by the block executor: setting it makes an
        abandoned over-deadline simulation stop instead of running to
        completion in a zombie thread. ``collect``, when given, receives one
        ``(kernel_name, variant, Profiler)`` triple per launch — the engine
        lifts these into per-region trace profiles for sampled requests.
        """
        images = self._bind_input(image)
        stages = self._simt_stages()
        result = launch_stages(stages, images, device=self.device,
                               abort=abort)
        if collect is not None:
            collect.extend(
                (name, variant, prof)
                for (name, variant, _), prof in zip(stages, result.profilers)
            )
        return result.images[self.output_name]

    def sanitize(self) -> list:
        """Run the static bounds sanitizer over every stage's compiled SIMT
        kernel (the code shape the plan's variant choices would execute).

        Returns the per-kernel :class:`repro.sanitize.SanitizeReport` list;
        the engine rejects the plan if any report carries findings.  The
        compiled artifacts are memoized, so a later SIMT execution reuses
        exactly the kernels that were sanitized.
        """
        from ..sanitize.static import sanitize_compiled, sanitize_fused

        return [
            sanitize_fused(ck) if isinstance(ck, CompiledFusedKernel)
            else sanitize_compiled(ck)
            for ck in self._compiled_simt()
        ]

    def _compiled_simt(self) -> list:
        """The compiled SIMT kernels, in launch order."""
        return [ck for _, _, ck in self._simt_stages()]

    def _simt_stages(self) -> list:
        """The plan's SIMT launches as ``(name, variant, kernel)`` triples,
        compiled once and memoized."""
        with self._simt_lock:
            if self._simt_compiled is None:
                if self.fused_plan is not None:
                    # Fused plans compile to one per-block halo-staging
                    # megakernel; shapes the generator refuses (degenerate
                    # geometry, non-exact tiling, uncommuting borders,
                    # scratchpad over the device limit) run staged NAIVE,
                    # mirroring the host path's degenerate fallback.
                    try:
                        cfk = compile_fused_simt(
                            self.fused_plan,
                            block=self.key.block,
                            device=self.device,
                        )
                        self._simt_compiled = [(cfk.name, "fused", cfk)]
                        return self._simt_compiled
                    except CompileError:
                        pass
                mapping = {
                    "naive": Variant.NAIVE,
                    "isp": Variant.ISP,
                    "isp_warp": Variant.ISP_WARP,
                    # prepad is a host-side execution strategy; its compiled
                    # SIMT shape (for sanitize / simulation) is the fully
                    # checked single-region kernel, which is semantically
                    # identical.
                    "prepad": Variant.NAIVE,
                    "fused": Variant.NAIVE,
                }
                self._simt_compiled = [
                    (desc.name, self.kernel_variants[desc.output_name],
                     compile_kernel(
                         desc,
                         variant=mapping[self.kernel_variants[desc.output_name]],
                         block=self.key.block,
                         device=self.device,
                     ))
                    for desc in self.descs
                ]
            return self._simt_compiled


def build_plan(
    app: str,
    pattern: str,
    width: int,
    height: int,
    *,
    variant: str = "isp+m",
    device: DeviceSpec = GTX680,
    block: tuple[int, int] = (32, 4),
    constant: float = 0.0,
    descs: Optional[Sequence[KernelDescription]] = None,
) -> ExecutionPlan:
    """Trace and variant-select one workload (the slow path).

    Every variant builds for every geometry: the total border mappings
    stage any host tile (on a degenerate image no tile lies inside it, so
    ``isp`` stages every tile like ``naive``), and the compiler collapses a
    degenerate ISP kernel to the naive one. ``variant="isp+m"`` invokes
    the analytic model per bordered kernel.
    """
    t0 = time.perf_counter()
    if descs is None:
        descs = trace_app(app, pattern, width, height, constant)
    descs = tuple(descs)
    key = plan_key(descs, variant=variant, pattern=pattern, device=device,
                   block=block)

    choices: dict[str, str] = {}
    for desc in descs:
        if not desc.needs_border_handling:
            choices[desc.output_name] = "naive"
        elif variant == "isp+m":  # the model decides per kernel (Eq. 10)
            from ..model.prediction import predict_kernel

            prediction = predict_kernel(desc, block=block, device=device)
            choices[desc.output_name] = "isp" if prediction.use_isp else "naive"
        else:
            choices[desc.output_name] = variant

    fused_plan = None
    if variant == "fused":
        fused_plan = fuse_descs(descs, name=app)

    return ExecutionPlan(
        key=key,
        app=app,
        descs=descs,
        kernel_variants=choices,
        build_seconds=time.perf_counter() - t0,
        device=device,
        fused_plan=fused_plan,
    )
