"""Runtime shadow-OOB verification for both execution paths.

The static pass (:mod:`repro.sanitize.static`) *proves* addresses in-bounds;
this module *instruments* actual executions so that any bound the prover
missed still traps instead of silently corrupting pixels:

* **SIMT path** — :func:`check_pipeline_simt` runs the full functional
  simulation with :class:`repro.gpu.memory.GlobalMemory` in shadow mode:
  every allocation is tracked, a redzone follows each buffer, and every lane
  address of every ``ld.global``/``st.global`` must land inside a live
  allocation.  An out-of-bounds border access traps even when it would have
  landed inside a *different* image's buffer — the failure mode that is
  invisible to a whole-memory range check.
* **Vectorized path** — :func:`check_pipeline_vectorized` evaluates the
  kernels against *canary-padded* images: each buffer is embedded in a NaN
  ring wide enough to absorb any plausible coordinate error, so a mis-mapped
  coordinate reads NaN and poisons the output, which is then scanned.  The
  host executor's own bounds check (:class:`~repro.runtime
  .OutOfBoundsError`, raised for view and staged windows alike) fires
  first for any read outside the image; the NaN ring stays as an
  independent backstop should that check itself be wrong. Inputs must be
  NaN-free for the scan to be meaningful: a NaN input raises
  :class:`ValueError` (a plain check, so it holds under ``python -O``).

Both entry points return a :class:`ShadowReport` instead of raising, so the
CLI and tests can aggregate violations across a corpus.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from ..compiler.frontend import trace_kernel
from ..compiler.isp import Variant
from ..dsl.pipeline import Pipeline
from ..gpu.memory import MemoryError_
from ..runtime.vectorized import OutOfBoundsError, run_kernel_vectorized


@dataclasses.dataclass
class ShadowReport:
    """Outcome of one shadow-instrumented pipeline execution."""

    pipeline: str
    mode: str  # "simt" / "vectorized"
    variant: str
    violations: list[str] = dataclasses.field(default_factory=list)
    images: Optional[dict[str, np.ndarray]] = None

    @property
    def ok(self) -> bool:
        return not self.violations


def check_pipeline_simt(
    pipeline: Pipeline,
    *,
    variant: Variant = Variant.ISP,
    block: tuple[int, int] = (32, 4),
    inputs: Optional[dict[str, np.ndarray]] = None,
) -> ShadowReport:
    """Run the SIMT simulation under shadow memory; collect violations."""
    from ..runtime.executor import run_pipeline_simt

    report = ShadowReport(pipeline=pipeline.name, mode="simt", variant=variant.value)
    try:
        result = run_pipeline_simt(
            pipeline, variant=variant, block=block, inputs=inputs, shadow_oob=True
        )
        report.images = result.images
    except MemoryError_ as exc:
        report.violations.append(str(exc))
    return report


class _CanaryArray:
    """An image embedded in a NaN ring, indexable with original coordinates.

    ``shape`` reports the unpadded extent; indexing (a view window's slice
    pair, a staged window's slice/index-array mix) is translated by the
    pad, so coordinates in ``[-pad, size + pad)`` resolve into the padded
    backing array — in-bounds coordinates read real pixels, everything else
    reads NaN.
    """

    def __init__(self, array: np.ndarray, pad: int):
        array = np.asarray(array, dtype=np.float32)
        self.pad = pad
        self.shape = array.shape
        self._backing = np.pad(
            array, pad, mode="constant", constant_values=np.float32(np.nan)
        )

    def _translate(self, key):
        if isinstance(key, slice):
            # Evaluator slices always carry concrete start/stop.
            return slice(key.start + self.pad, key.stop + self.pad, key.step)
        return np.asarray(key) + self.pad

    def __getitem__(self, key):
        assert isinstance(key, tuple), key
        if len(key) == 3 and key[0] is Ellipsis:
            # batch-aware evaluators index (..., rows, cols); a canary is
            # always 2-D, so the leading ellipsis selects nothing
            key = key[1:]
        assert len(key) == 2, key
        return self._backing[self._translate(key[0]), self._translate(key[1])]


def check_pipeline_vectorized(
    pipeline: Pipeline,
    *,
    variant: str = "isp",
    inputs: Optional[dict[str, np.ndarray]] = None,
    pad: Optional[int] = None,
) -> ShadowReport:
    """Evaluate the pipeline on canary-padded images; scan outputs for NaN.

    Raises :class:`ValueError` if an input holds NaN, which the scan could
    not tell from a canary.
    """
    report = ShadowReport(pipeline=pipeline.name, mode="vectorized", variant=variant)
    descs = [trace_kernel(k) for k in pipeline]
    if pad is None:
        # Wide enough for any coordinate a correct *or* single-reflection
        # mapping can produce: one extent past either edge, doubled.
        pad = 2 * max(max(d.extent) for d in descs) + max(
            max(d.width, d.height) for d in descs
        )

    images: dict[str, _CanaryArray] = {}
    for img in pipeline.inputs:
        host = inputs[img.name] if inputs and img.name in inputs else img.host
        host = np.asarray(host, dtype=np.float32)
        if np.isnan(host).any():
            raise ValueError(
                f"canary check requires NaN-free input {img.name!r}"
            )
        images[img.name] = _CanaryArray(host, pad)

    plain: dict[str, np.ndarray] = {}
    for desc in descs:
        try:
            out = run_kernel_vectorized(desc, images, variant=variant)
        except OutOfBoundsError as exc:
            report.violations.append(f"{desc.name}: {exc}")
            return report
        bad = np.isnan(out)
        if bad.any():
            y, x = np.argwhere(bad)[0]
            report.violations.append(
                f"{desc.name}: canary NaN reached output pixel ({int(x)}, {int(y)}) "
                f"({int(bad.sum())} poisoned) — an access escaped the image"
            )
            return report
        images[desc.output_name] = _CanaryArray(out, pad)
        plain[desc.output_name] = out
    report.images = plain
    return report
