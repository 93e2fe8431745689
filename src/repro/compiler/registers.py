"""Register-usage estimation.

The ISP fat kernel's main cost is register pressure (paper Section IV-B,
Table II): the region-switch state and the larger scheduled code footprint
make NVCC allocate more registers, which can drop theoretical occupancy a
step on register-tight architectures like Kepler.

We estimate per-thread registers as::

    regs = max_live + BASE_MARGIN + SCHED_FACTOR * log2(static_instructions)
           + PATH_FACTOR * (code_paths - 1)

* ``max_live`` — exact maximum number of simultaneously live virtual
  registers, from a backward liveness dataflow over the CFG. This is the
  allocation floor a perfect allocator could reach.
* ``BASE_MARGIN`` — registers reserved by the ABI/driver (parameter shadow,
  special-register staging).
* ``SCHED_FACTOR * log2(size)`` — a documented heuristic for NVCC's
  instruction-scheduling lookahead: bigger kernels give the scheduler more
  independent work to hoist (loads issued early live longer), and measured
  SASS register counts grow roughly logarithmically with kernel size at
  fixed max-live.
* ``PATH_FACTOR * (code_paths - 1)`` — the fat kernel's many specialized
  region clones each contribute allocator state (the paper: "the additional
  region switching statements ... could potentially increase register usage
  on GPUs compared to a naive implementation", Section III-C); ``code_paths``
  is the number of distinct region tags in the function (1 for naive, up to
  9 for ISP).

The constants are calibrated once so the Bilateral/GTX680 configuration
reproduces the occupancy structure of the paper's Table II (naive 62.5% ->
ISP 50%); the same constants are then used unchanged for every other kernel,
pattern, and device.

Estimates above the architectural cap (63 on CC 3.0, 255 on CC 7.5) are
clamped and converted into a spill-traffic multiplier.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

from ..ir.cfg import live_out
from ..ir.function import KernelFunction
from ..ir.types import DataType
from .. import ir as _ir  # noqa: F401  (re-exported for tests' convenience)
from ..gpu.device import DeviceSpec

BASE_MARGIN = 4
SCHED_FACTOR = 2.5
PATH_FACTOR = 0.6
#: Relative issue-cycle overhead per spilled register (local-memory traffic).
SPILL_PENALTY = 0.03


@dataclasses.dataclass(frozen=True)
class RegisterEstimate:
    """Estimated register footprint of one kernel variant."""

    max_live: int
    estimated: int
    #: value after applying the device cap (what occupancy sees)
    allocated: int
    spilled: int
    #: >= 1.0; multiplies issue cycles in the timing model
    spill_factor: float


def max_live_registers(func: KernelFunction) -> int:
    """Exact maximum live-register count via backward dataflow.

    Predicates occupy predicate registers on real hardware, not the general
    file; they are excluded from the pressure count (PTX ``%p`` registers).
    """
    def counts(reg) -> bool:
        return reg.dtype is not DataType.PRED

    outs = live_out(func)
    preds = {r.name for instr in func.instructions()
             for r in (*instr.used_registers(), instr.defined_register())
             if r is not None and not counts(r)}

    # Max pressure: walk each block backwards tracking the live set.
    peak = 0
    for b in func.blocks:
        live = outs[b.label] - preds
        peak = max(peak, len(live))
        for instr in reversed(b.instructions):
            d = instr.defined_register()
            if d is not None and counts(d):
                live.discard(d.name)
            for r in instr.used_registers():
                if counts(r):
                    live.add(r.name)
            peak = max(peak, len(live))
    return peak


def estimate_registers(
    func: KernelFunction, device: Optional[DeviceSpec] = None
) -> RegisterEstimate:
    """Estimate the register footprint of ``func`` on ``device``."""
    live = max_live_registers(func)
    size = max(2, func.static_size())
    paths = len({i.region for i in func.instructions() if i.region is not None})
    estimated = int(
        round(
            live
            + BASE_MARGIN
            + SCHED_FACTOR * math.log2(size)
            + PATH_FACTOR * max(0, paths - 1)
        )
    )
    cap = device.max_registers_per_thread if device is not None else 255
    allocated = min(estimated, cap)
    spilled = max(0, estimated - cap)
    spill_factor = 1.0 + SPILL_PENALTY * spilled
    return RegisterEstimate(
        max_live=live,
        estimated=estimated,
        allocated=allocated,
        spilled=spilled,
        spill_factor=spill_factor,
    )
