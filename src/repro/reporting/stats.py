"""Statistics helpers for the benchmark harness.

Self-contained implementations (geometric mean, Pearson correlation) so the
core library does not depend on SciPy; the tests cross-check them against
SciPy where available.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (paper Table IV aggregates)."""
    vals = list(values)
    if not vals:
        raise ValueError("geometric mean of empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("geometric mean requires positive values")
    g = math.exp(sum(math.log(v) for v in vals) / len(vals))
    # exp(mean(log)) can land a few ulp outside [min, max] (n copies of v
    # need not give back v); a mean always lies within it.
    return min(max(g, min(vals)), max(vals))


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient (paper Table III's last column)."""
    if len(xs) != len(ys):
        raise ValueError("sequences must have equal length")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points")
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx == 0 or vy == 0:
        raise ValueError("zero variance")
    # sqrt(vx) * sqrt(vy), not sqrt(vx * vy): the product of two tiny
    # variances can underflow to 0.0 even when both are representable.
    return cov / (math.sqrt(vx) * math.sqrt(vy))


def speedup(baseline: float, improved: float) -> float:
    """baseline_time / improved_time (>1 means 'improved' is faster)."""
    if improved <= 0:
        raise ValueError("non-positive time")
    return baseline / improved
