"""The benchmark's workloads: request kinds and the inputs drawn for them.

A request kind is one (app, border pattern, variant, device, exec mode,
alone/burst) combination. Every workload is a closed loop from one client
thread against engines with one worker each, which on a 2-core machine keeps
burst batching deterministic.
"""

from __future__ import annotations

import dataclasses

import numpy as np

PATTERNS = ("clamp", "mirror", "repeat", "constant")

#: Host variants, rotated over (app, pattern) cells so that each variant
#: meets every app and every pattern. Left out on purpose: ``auto`` (the
#: tuner's pick depends on measured timings, so the code path would change
#: between runs) and host ``isp_warp`` (no host mechanism of its own).
HOST_VARIANTS = ("isp+m", "prepad", "fused")

#: Requests in a burst: the engine's default micro-batch size.
BURST = 8


@dataclasses.dataclass(frozen=True)
class Kind:
    app: str
    pattern: str
    variant: str
    device: str
    exec_mode: str
    size: int
    burst: int = 1

    @property
    def name(self) -> str:
        shape = "burst%d" % self.burst if self.burst > 1 else "alone"
        return (f"{self.app}/{self.pattern}/{self.variant}/{self.device}/"
                f"{self.exec_mode}/{self.size}/{shape}")

    @property
    def plan_id(self) -> tuple:
        """Kinds with equal ids resolve to the same cached plan."""
        return (self.app, self.pattern, self.variant, self.device, self.size)

    @property
    def input_shape(self) -> tuple[int, ...]:
        lead = (self.burst,) if self.burst > 1 else ()
        return (*lead, self.size, self.size)


def _host_cells(apps):
    return [
        (app, pattern, HOST_VARIANTS[(i + j) % len(HOST_VARIANTS)])
        for i, app in enumerate(apps)
        for j, pattern in enumerate(PATTERNS)
    ]


def _host_small() -> list[Kind]:
    cells = _host_cells(("gaussian", "laplace", "sobel", "night"))
    return [
        Kind(app, pattern, variant, "GTX680", "vectorized", 64, burst)
        for burst in (1, BURST)
        for app, pattern, variant in cells
    ]


def _simt_zoo() -> list[Kind]:
    # Every SIMT variant on a warp32 and a wave64 device, each pattern twice.
    # The fused kinds use sobel, whose shared-memory megakernel engages on
    # both devices at 64²; night stays out (its megakernel takes ~15 s).
    table = [
        ("GTX680", "gaussian", "clamp", "naive"),
        ("GTX680", "laplace", "mirror", "isp"),
        ("GTX680", "gaussian", "repeat", "isp_warp"),
        ("GTX680", "sobel", "constant", "fused"),
        ("VEGA64", "laplace", "repeat", "naive"),
        ("VEGA64", "gaussian", "constant", "isp"),
        ("VEGA64", "laplace", "clamp", "isp_warp"),
        ("VEGA64", "sobel", "mirror", "fused"),
    ]
    return [Kind(app, pattern, variant, device, "simt", 64)
            for device, app, pattern, variant in table]


WORKLOADS = {
    "host_small": _host_small,
    "simt_zoo": _simt_zoo,
}


def kinds_for(workload: str) -> list[Kind]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; have {sorted(WORKLOADS)}")
    return WORKLOADS[workload]()


def input_rng(seed: int) -> np.random.Generator:
    """The generator that draws every request's input."""
    return np.random.default_rng([seed, 0])


def draw_input(kind: Kind, rng: np.random.Generator) -> np.ndarray:
    """A fresh float32 input for one request of ``kind`` (a stack of BURST
    images for a burst). Every request carries a new array with new values,
    so no cache keyed on an input's identity or content can hit."""
    return rng.random(kind.input_shape, dtype=np.float32)


def order_rng(seed: int) -> np.random.Generator:
    """The generator that shuffles the kinds of each round."""
    return np.random.default_rng([seed, 1])
