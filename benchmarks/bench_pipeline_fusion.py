"""Fused pipeline execution vs staged, priced and model-checked.

The fusion pass trades redundant halo recompute for never materializing a
full-image intermediate (docs/pipelines.md). This smoke pins the headline
on the host executor:

* **fused keeps up with staged on Night at 2048²** — four chained à-trous
  stages plus tonemap is the corpus's deepest pipeline (15-pixel
  cumulative input halo, four full-image intermediates staged execution
  round-trips), and the regime the overlapped-tiling literature targets.
  Since the host executor tiles staged execution too (128x512 tiles, a
  tape over per-tile windows), what fusion saves — four full-image
  round-trips — roughly pays for its halo recompute: measured 0.94-1.21x
  across runs, where the pre-tape executor measured 1.23x. With the plan
  cached, fused must stay within 20% of staged ISP.
* **``predict_fused`` agrees on the winner** — the model's gain for the
  same configuration must sit on the same side of 1.0 as the measurement:
  the autotuner prior points at the arm the measurements would commit.
* **sobel secondary** — the shallow-diamond shape (two 3×3 producers, one
  point consumer) at 512² sits near the crossover on the host executor:
  measured and reported for the trajectory, gated only on the model side.

Headline numbers land in ``BENCH_pipeline_fusion.json`` at the repo root
(machine-readable trajectory; see ``conftest.bench_summary``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.gpu import GTX680
from repro.model import predict_fused
from repro.serve.plan import build_plan, trace_app

#: The headline cell: the deepest pipeline at the paper's largest size.
APP = "night"
PATTERN = "clamp"
SIZE = 2048
#: Secondary cell: the shallow sobel diamond.
SOBEL_SIZE = 512


def _per_call_s(fn, *, rounds: int = 2, warmup: int = 1) -> float:
    for _ in range(warmup):
        fn()
    best = float("inf")
    # Best-of-N single calls: co-tenant noise only inflates a sample, so
    # the minimum is the least-contaminated estimate (autotuner convention).
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _measure(app: str, pattern: str, size: int, rng) -> dict:
    img = rng.standard_normal((size, size)).astype(np.float32)
    staged_plan = build_plan(app, pattern, size, size, variant="isp")
    fused_plan = build_plan(app, pattern, size, size, variant="fused")
    staged_s = _per_call_s(lambda: staged_plan.execute(img))
    fused_s = _per_call_s(lambda: fused_plan.execute(img))
    # bit-exactness is the test suite's job, but a bench that silently
    # compared different outputs would be meaningless — assert it cheaply
    assert np.array_equal(staged_plan.execute(img), fused_plan.execute(img))
    pred = predict_fused(list(trace_app(app, pattern, size, size)),
                         block=(32, 4), device=GTX680, name=app)
    return {
        "app": app, "pattern": pattern, "size": size,
        "staged_ms": staged_s * 1e3,
        "fused_ms": fused_s * 1e3,
        "measured_gain": staged_s / fused_s,
        "model_gain": pred.gain,
        "model_use_fused": pred.use_fused,
    }


def test_fused_keeps_up_with_staged_on_night(benchmark, report, bench_summary,
                                             case_rng):
    def build():
        return [
            _measure(APP, PATTERN, SIZE, case_rng),
            _measure("sobel", PATTERN, SOBEL_SIZE, case_rng),
        ]

    night, sobel = benchmark.pedantic(build, rounds=1, iterations=1)

    lines = ["pipeline fusion: fused vs staged (plan cached, best-of-2)"]
    for row in (night, sobel):
        lines.append(
            f"  {row['app']:6s}/{row['pattern']}/{row['size']}²: "
            f"staged {row['staged_ms']:8.1f} ms, "
            f"fused {row['fused_ms']:8.1f} ms "
            f"-> {row['measured_gain']:.2f}x measured, "
            f"{row['model_gain']:.2f}x model"
        )
    text = "\n".join(lines)
    report("pipeline_fusion", text, data={"cells": [night, sobel]})
    bench_summary("pipeline_fusion", {"cells": [night, sobel]})

    # Fusion keeps up on the deep-pipeline headline cell (parity within
    # noise since both paths are tiled; the gate leaves margin for CI).
    assert night["measured_gain"] > 0.8, night
    # ... and the model prior points the autotuner at the same winner.
    assert night["model_use_fused"], night
    # The shallow sobel diamond sits near the crossover on the host
    # executor (~1.02x idle): its measurement is reported, not gated, but
    # the model must still price it fuse-side.
    assert sobel["model_use_fused"], sobel
