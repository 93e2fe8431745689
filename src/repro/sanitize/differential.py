"""Cross-variant differential verification against the golden reference.

Every execution path of the repo — naive / ISP / warp-grained ISP on the
SIMT simulator, naive / ISP on the vectorized host executor — must produce
**bit-identical** float32 output for a convolution, because all paths
accumulate taps row-major in float32 exactly like
:func:`repro.filters.reference.correlate`.  This module exploits that: it
runs an adversarial corpus of *tiny images times large windows* (the regime
where every border mapping executes deep excursions, the exact conditions
under which the out-of-bounds Mirror mapping corrupted pixels) through every
variant and compares with ``np.array_equal``.

A mismatch is reported with the first differing pixel; a crash (simulated
memory trap, vectorized :class:`~repro.runtime.OutOfBoundsError`) is
reported as a violation of the
same case — either way the harness never aborts mid-corpus.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterable, Optional

import numpy as np

from ..compiler.isp import Variant
from ..dsl import (
    Accessor,
    Boundary,
    BoundaryCondition,
    Image,
    IterationSpace,
    Kernel,
    Mask,
)
from ..dsl.pipeline import Pipeline
from ..filters.reference import correlate

#: image sizes x window half-extents exercised by default.  Half-extents are
#: taken per-size as ``min(he, 2 * size + 1)`` and deduplicated, so every
#: size is also paired with a window more than twice its own extent — the
#: "small images computed using a large filter window" case the paper calls
#: out, and the one the old Mirror lowering got wrong.
DEFAULT_SIZES = (1, 2, 3, 5, 8)
DEFAULT_HALF_EXTENTS = (1, 2, 3, 7, 99)
DEFAULT_PATTERNS = (
    Boundary.CLAMP,
    Boundary.MIRROR,
    Boundary.REPEAT,
    Boundary.CONSTANT,
)
DEFAULT_SIMT_VARIANTS = (Variant.NAIVE, Variant.ISP, Variant.ISP_WARP)
DEFAULT_VEC_VARIANTS = ("naive", "isp")

#: pipeline corpus: per-stage half-extent chains (clipped per-size exactly
#: like ``DEFAULT_HALF_EXTENTS``), tile shapes for the fused executor — the
#: (1, None) and (2, 5) entries force tiles *smaller than the halo*, where
#: every tile is all-border — and the registered multi-kernel apps.
DEFAULT_CHAIN_EXTENTS = ((1,), (2, 1), (1, 2, 1), (7, 3), (99,))
DEFAULT_TILE_SHAPES = ((None, None), (1, None), (3, 3), (2, 5))
DEFAULT_PIPELINE_APPS = ("sobel", "night")


class _ConvKernel(Kernel):
    def __init__(self, iter_space, acc, mask, kernel_name):
        super().__init__(iter_space)
        self.acc = self.add_accessor(acc)
        self.mask = mask
        self._name = kernel_name

    @property
    def name(self) -> str:
        return self._name

    def kernel(self):
        return self.convolve(self.mask, self.acc)


def make_conv_pipeline(
    width: int,
    height: int,
    boundary: Boundary,
    mask: np.ndarray,
    constant: float = 0.0,
    name: str = "diffconv",
) -> Pipeline:
    """One-kernel convolution pipeline reading ``inp``, writing ``out``."""
    inp = Image(width, height, "inp")
    out = Image(width, height, "out")
    acc = Accessor(BoundaryCondition(inp, boundary, constant))
    kernel = _ConvKernel(IterationSpace(out), acc, Mask(mask), name)
    return Pipeline(name, [kernel])


def make_chain_pipeline(
    width: int,
    height: int,
    boundary: Boundary,
    masks: Iterable[np.ndarray],
    constant: float = 0.0,
    name: str = "diffchain",
) -> Pipeline:
    """Producer->consumer conv chain: ``inp -> t0 -> ... -> out``.

    Each stage convolves the previous stage's output with its own mask under
    the same border pattern, so the whole chain has a closed-form reference
    (fold :func:`correlate` over the masks) that is bit-exact against both
    the staged and the fused executors.
    """
    masks = list(masks)
    if not masks:
        raise ValueError("chain needs at least one mask")
    src = Image(width, height, "inp")
    kernels = []
    for i, mask in enumerate(masks):
        last = i == len(masks) - 1
        dst = Image(width, height, "out" if last else f"t{i}")
        acc = Accessor(BoundaryCondition(src, boundary, constant))
        kernels.append(
            _ConvKernel(IterationSpace(dst), acc, Mask(mask), f"{name}_s{i}")
        )
        src = dst
    return Pipeline(name, kernels)


@dataclasses.dataclass(frozen=True)
class Mismatch:
    """One variant disagreeing with (or crashing against) the reference."""

    path: str  # e.g. "simt/isp_warp", "vectorized/naive"
    boundary: str
    width: int
    height: int
    half_extent: int
    message: str

    def __str__(self) -> str:
        return (
            f"{self.path} {self.boundary} {self.width}x{self.height} "
            f"he={self.half_extent}: {self.message}"
        )


@dataclasses.dataclass
class DifferentialReport:
    cases: int = 0
    comparisons: int = 0
    mismatches: list[Mismatch] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.mismatches)} mismatch(es)"
        return (
            f"differential: {self.cases} cases, "
            f"{self.comparisons} variant comparisons: {status}"
        )


def _compare(expected: np.ndarray, actual: np.ndarray) -> Optional[str]:
    if np.array_equal(expected, actual):
        return None
    diff = expected != actual
    # NaN != NaN: only count positions where the values genuinely differ.
    both_nan = np.isnan(expected) & np.isnan(actual)
    diff &= ~both_nan
    if not diff.any():
        return None
    y, x = np.argwhere(diff)[0]
    return (
        f"{int(diff.sum())} pixel(s) differ; first at ({int(x)}, {int(y)}): "
        f"expected {expected[y, x]!r}, got {actual[y, x]!r}"
    )


def run_differential(
    *,
    sizes: Iterable[int] = DEFAULT_SIZES,
    half_extents: Iterable[int] = DEFAULT_HALF_EXTENTS,
    patterns: Iterable[Boundary] = DEFAULT_PATTERNS,
    simt_variants: Iterable[Variant] = DEFAULT_SIMT_VARIANTS,
    vectorized_variants: Iterable[str] = DEFAULT_VEC_VARIANTS,
    block: tuple[int, int] = (32, 4),
    constant: float = 1.25,
    shadow: bool = True,
    seed: int = 20210521,
) -> DifferentialReport:
    """Run every variant over the adversarial corpus vs the reference.

    With ``shadow=True`` the SIMT runs use shadow-OOB memory and the
    vectorized runs use canary-padded images, so a silent out-of-bounds
    access is caught even when it happens to produce the right value.
    """
    from ..runtime.executor import run_pipeline_simt
    from ..runtime.vectorized import run_pipeline_vectorized
    from .shadow import check_pipeline_simt, check_pipeline_vectorized

    rng = np.random.default_rng(seed)
    report = DifferentialReport()
    for size, he_req, boundary in itertools.product(
        sorted(set(sizes)), sorted(set(half_extents)), patterns
    ):
        he = min(he_req, 2 * size + 1)
        if he != he_req and he in half_extents:
            continue  # the clipped extent is its own corpus entry
        w = h = size
        mask = rng.uniform(0.25, 1.0, (2 * he + 1, 2 * he + 1)).astype(np.float32)
        src = rng.uniform(-1.0, 1.0, (h, w)).astype(np.float32)
        expected = correlate(src, mask, boundary, constant)
        pipe = make_conv_pipeline(w, h, boundary, mask, constant)
        report.cases += 1

        for variant in simt_variants:
            path = f"simt/{variant.value}"
            report.comparisons += 1
            try:
                if shadow:
                    sr = check_pipeline_simt(
                        pipe, variant=variant, block=block, inputs={"inp": src}
                    )
                    if not sr.ok:
                        _record(report, path, boundary, w, h, he, sr.violations[0])
                        continue
                    actual = sr.images["out"]
                else:
                    actual = run_pipeline_simt(
                        pipe, variant=variant, block=block, inputs={"inp": src}
                    ).images["out"]
            except Exception as exc:  # noqa: BLE001 — corpus must not abort
                _record(report, path, boundary, w, h, he, f"crash: {exc}")
                continue
            msg = _compare(expected, actual)
            if msg:
                _record(report, path, boundary, w, h, he, msg)

        for vec in vectorized_variants:
            path = f"vectorized/{vec}"
            report.comparisons += 1
            try:
                if shadow:
                    sr = check_pipeline_vectorized(
                        pipe, variant=vec, inputs={"inp": src}
                    )
                    if not sr.ok:
                        _record(report, path, boundary, w, h, he, sr.violations[0])
                        continue
                    actual = sr.images["out"]
                else:
                    actual = run_pipeline_vectorized(
                        pipe, {"inp": src}, variant=vec
                    )["out"]
            except Exception as exc:  # noqa: BLE001
                _record(report, path, boundary, w, h, he, f"crash: {exc}")
                continue
            msg = _compare(expected, actual)
            if msg:
                _record(report, path, boundary, w, h, he, msg)
    return report


def run_pipeline_differential(
    *,
    sizes: Iterable[int] = DEFAULT_SIZES,
    chain_extents: Iterable[tuple[int, ...]] = DEFAULT_CHAIN_EXTENTS,
    patterns: Iterable[Boundary] = DEFAULT_PATTERNS,
    tile_shapes: Iterable[tuple[Optional[int], Optional[int]]] = DEFAULT_TILE_SHAPES,
    apps: Iterable[str] = DEFAULT_PIPELINE_APPS,
    staged_variant: str = "isp",
    constant: float = 1.25,
    seed: int = 20210521,
) -> DifferentialReport:
    """Differential check of *fused* pipeline execution vs staged vs oracle.

    Two corpora, both over tiny images and all border patterns:

    * **conv chains** — every per-stage half-extent chain in
      ``chain_extents`` (clipped per-size like the single-kernel corpus, so
      over-wide windows are always present) is executed staged and fused at
      every tile shape; the oracle is :func:`correlate` folded over the
      stage masks, which every path must match **bit-exactly**;
    * **registered apps** (``sobel``, ``night``) — the fused executor must
      be bit-identical to the staged vectorized executor at every tile
      shape, including tiles smaller than the pipeline's cumulative halo.

    A crash (fusion error, out-of-bounds read) is recorded as a mismatch for
    the same case; the harness never aborts mid-corpus.
    """
    from ..compiler import cumulative_halos, trace_kernel
    from ..compiler.fusion import fuse_descs
    from ..compiler.fusion_simt import compile_fused_simt
    from ..compiler.isp import CompileError
    from ..filters import PIPELINES
    from ..runtime.executor import launch_stages
    from ..runtime.fused import run_pipeline_fused
    from ..runtime.vectorized import run_pipeline_vectorized

    tile_shapes = list(tile_shapes)
    rng = np.random.default_rng(seed)
    report = DifferentialReport()

    for size, chain_req, boundary in itertools.product(
        sorted(set(sizes)), sorted(set(chain_extents)), patterns
    ):
        chain = tuple(min(he, 2 * size + 1) for he in chain_req)
        if chain != chain_req and chain in chain_extents:
            continue  # the clipped chain is its own corpus entry
        w = h = size
        he_max = max(chain)
        masks = [
            rng.uniform(0.25, 1.0, (2 * he + 1, 2 * he + 1)).astype(np.float32)
            for he in chain
        ]
        src = rng.uniform(-1.0, 1.0, (h, w)).astype(np.float32)
        expected = src
        for mask in masks:
            expected = correlate(expected, mask, boundary, constant)
        pipe = make_chain_pipeline(w, h, boundary, masks, constant)
        report.cases += 1

        report.comparisons += 1
        try:
            staged = run_pipeline_vectorized(
                pipe, {"inp": src}, variant=staged_variant
            )["out"]
        except Exception as exc:  # noqa: BLE001 — corpus must not abort
            _record(report, "chain/staged", boundary, w, h, he_max,
                    f"crash: {exc}")
            staged = None
        else:
            msg = _compare(expected, staged)
            if msg:
                _record(report, "chain/staged", boundary, w, h, he_max, msg)

        for tr, tc in tile_shapes:
            path = f"chain/fused[t{tr}x{tc}]"
            report.comparisons += 1
            try:
                actual = run_pipeline_fused(
                    pipe, {"inp": src}, tile_rows=tr, tile_cols=tc
                )
            except Exception as exc:  # noqa: BLE001
                _record(report, path, boundary, w, h, he_max, f"crash: {exc}")
                continue
            msg = _compare(expected, actual)
            if msg:
                _record(report, path, boundary, w, h, he_max, msg)

    for app, size, boundary in itertools.product(
        sorted(set(apps)), sorted(set(sizes)), patterns
    ):
        w = h = size
        src = rng.uniform(-1.0, 1.0, (h, w)).astype(np.float32)
        pipe = PIPELINES[app](w, h, boundary, constant)
        halos = cumulative_halos([trace_kernel(k) for k in pipe])
        he_max = max(
            (max(hx, hy) for hx, hy in halos.values()), default=0
        )
        report.cases += 1
        try:
            oracle = run_pipeline_vectorized(
                pipe, {"inp": src}, variant=staged_variant
            )["out"]
        except Exception as exc:  # noqa: BLE001
            _record(report, f"{app}/staged", boundary, w, h, he_max,
                    f"crash: {exc}")
            continue
        for tr, tc in tile_shapes:
            path = f"{app}/fused[t{tr}x{tc}]"
            report.comparisons += 1
            try:
                actual = run_pipeline_fused(
                    pipe, {"inp": src}, tile_rows=tr, tile_cols=tc
                )
            except Exception as exc:  # noqa: BLE001
                _record(report, path, boundary, w, h, he_max, f"crash: {exc}")
                continue
            msg = _compare(oracle, actual)
            if msg:
                _record(report, path, boundary, w, h, he_max, msg)

        # Fused-SIMT arm: the per-block halo-staging megakernel must agree
        # with the staged oracle bit-exactly on both warp widths. Shapes
        # the generator refuses (degenerate geometry, non-exact tiling,
        # single-stage plans) run staged NAIVE on the simulator — already
        # covered above — so a CompileError is the documented fallback,
        # not a finding.
        if w % 2 == 0 and h % 2 == 0 and min(w, h) >= 8:
            for device in _simt_devices():
                path = f"{app}/fused_simt[{device.name}]"
                try:
                    descs = [trace_kernel(k) for k in pipe]
                    plan = fuse_descs(descs, name=app)
                    cfk = compile_fused_simt(plan, block=(2, 2),
                                             device=device)
                except CompileError:
                    continue
                report.comparisons += 1
                try:
                    # Unprofiled: only the output is compared.
                    actual = launch_stages(
                        [(cfk.name, "fused", cfk)],
                        {name: src for name in cfk.layout.externals},
                    ).images[plan.output_name]
                except Exception as exc:  # noqa: BLE001
                    _record(report, path, boundary, w, h, he_max,
                            f"crash: {exc}")
                    continue
                msg = _compare(oracle, actual)
                if msg:
                    _record(report, path, boundary, w, h, he_max, msg)
    return report


def _simt_devices():
    from ..gpu import GTX680, VEGA64

    return (GTX680, VEGA64)


def _record(
    report: DifferentialReport,
    path: str,
    boundary: Boundary,
    w: int,
    h: int,
    he: int,
    message: str,
) -> None:
    report.mismatches.append(
        Mismatch(
            path=path,
            boundary=boundary.value,
            width=w,
            height=h,
            half_extent=he,
            message=message,
        )
    )
