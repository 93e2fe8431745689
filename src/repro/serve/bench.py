"""Synthetic-workload driver behind ``python -m repro serve-bench``.

Drives a mixed workload (the paper's five applications x border patterns)
through the engine twice:

* **baseline** — cold-compile-per-request: every request re-traces,
  re-runs model selection and rebuilds its plan with all process-level
  caches cleared, single-threaded — the pre-``repro.serve`` behaviour of
  the CLI and examples;
* **served** — through :class:`~repro.serve.engine.ServeEngine` with the
  plan cache and worker pool enabled.

and reports throughput, latency percentiles and plan-cache hit rate through
:mod:`repro.reporting`.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from ..gpu.device import DeviceSpec, GTX680
from ..reporting import format_table
from .engine import Request, ServeEngine
from .plan import build_plan, clear_trace_cache

DEFAULT_APPS = ("gaussian", "laplace", "bilateral", "sobel", "night")
DEFAULT_PATTERNS = ("clamp", "mirror")


def build_workload(
    n: int,
    *,
    size: int = 128,
    seed: int = 0,
    apps: Sequence[str] = DEFAULT_APPS,
    patterns: Sequence[str] = DEFAULT_PATTERNS,
    variant: str = "isp+m",
    shuffle: bool = True,
) -> list[Request]:
    """A deterministic mix of (app, pattern) request kinds.

    ``shuffle=True`` interleaves the kinds pseudo-randomly (the served
    workload); ``shuffle=False`` cycles round-robin, so any prefix is a
    balanced sample — the baseline uses that to cost every kind fairly.
    """
    rng = np.random.default_rng(seed)
    # A small pool of distinct input images, reused across requests.
    pool = [rng.random((size, size), dtype=np.float32) for _ in range(4)]
    kinds = [(a, p) for a in apps for p in patterns]
    order = np.arange(n) % len(kinds)
    if shuffle:
        order = rng.permutation(order)
    requests = []
    for i in range(n):
        app, pattern = kinds[order[i]]
        requests.append(
            Request(app=app, image=pool[i % len(pool)], pattern=pattern,
                    variant=variant)
        )
    return requests


def _clear_process_caches() -> None:
    """Drop every process-level memo so a build is genuinely cold."""
    from ..model import clear_model_cache
    from ..runtime import clear_profile_cache

    clear_model_cache()
    clear_profile_cache()
    clear_trace_cache()


def run_baseline(requests: list[Request], *, device: DeviceSpec = GTX680,
                 block: tuple[int, int] = (32, 4)) -> dict:
    """Cold-compile-per-request, one image at a time, one thread."""
    t0 = time.perf_counter()
    build_s = 0.0
    for req in requests:
        _clear_process_caches()
        h, w = req.image.shape
        plan = build_plan(req.app, req.pattern, w, h, variant=req.variant,
                          device=device, block=block, constant=req.constant)
        # The engine sanitizes every plan it builds; the cold baseline must
        # price the same work or the speedup comparison is lopsided.
        plan.sanitize()
        build_s += plan.build_seconds
        plan.execute(req.image)
    elapsed = time.perf_counter() - t0
    return {
        "requests": len(requests),
        "elapsed_s": elapsed,
        "throughput_rps": len(requests) / elapsed if elapsed else float("inf"),
        "build_seconds_total": build_s,
    }


def run_serve_bench(
    *,
    requests: int = 200,
    size: int = 128,
    workers: int = 4,
    batch_size: int = 8,
    plan_cache_size: int = 64,
    baseline_requests: Optional[int] = None,
    seed: int = 0,
    variant: str = "isp+m",
    device: DeviceSpec = GTX680,
    apps: Sequence[str] = DEFAULT_APPS,
    patterns: Sequence[str] = DEFAULT_PATTERNS,
) -> dict:
    """Run baseline + served workloads and collect one report dict."""
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    workload = build_workload(requests, size=size, seed=seed, apps=apps,
                              patterns=patterns, variant=variant)
    distinct = len({r.signature for r in workload})

    if baseline_requests is None:
        baseline_requests = min(requests, max(distinct * 2, 20))
    # Round-robin ordering: any prefix samples every workload kind evenly,
    # so a short baseline run still prices the expensive kinds.
    baseline_workload = build_workload(
        baseline_requests, size=size, seed=seed, apps=apps,
        patterns=patterns, variant=variant, shuffle=False,
    )
    baseline = run_baseline(baseline_workload, device=device)

    _clear_process_caches()  # the served run pays its own cold builds
    engine = ServeEngine(workers=workers, batch_size=batch_size,
                         plan_cache_size=plan_cache_size, device=device,
                         queue_depth=max(64, requests))
    with engine:
        t0 = time.perf_counter()
        responses = engine.run(workload)
        elapsed = time.perf_counter() - t0
        stats = engine.stats()

    errors = [r for r in responses if not r.ok]
    hits = stats["engine"]["engine.plan_cache_hits"]
    misses = stats["engine"]["engine.plan_cache_misses"]
    served_rps = requests / elapsed if elapsed else float("inf")
    return {
        "requests": requests,
        "size": size,
        "workers": workers,
        "distinct_workloads": distinct,
        "variant": variant,
        "errors": len(errors),
        "baseline": baseline,
        "served": {
            "elapsed_s": elapsed,
            "throughput_rps": served_rps,
            "cache_hits": hits,
            "cache_misses": misses,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "latency": stats["latency"],
            "fallbacks_timeout": stats["engine"]["engine.fallbacks_timeout"],
            "batches": stats["engine"]["engine.batches"],
        },
        "speedup": served_rps / baseline["throughput_rps"],
    }


def format_report(report: dict) -> str:
    """Render the serve-bench report as the repo's standard ASCII table."""
    served = report["served"]
    base = report["baseline"]
    exec_lat = served["latency"].get("engine.execute_seconds", {})
    rows = [
        ["requests served", report["requests"]],
        ["distinct workloads", report["distinct_workloads"]],
        ["workers", report["workers"]],
        ["errors", report["errors"]],
        ["plan-cache hit rate", f"{served['hit_rate']:.1%}"],
        ["plan-cache hits/misses",
         f"{served['cache_hits']}/{served['cache_misses']}"],
        ["micro-batches", served["batches"]],
        ["fallbacks (timeout)", served["fallbacks_timeout"]],
        ["served throughput", f"{served['throughput_rps']:.1f} req/s"],
        [f"baseline throughput (cold, n={base['requests']})",
         f"{base['throughput_rps']:.1f} req/s"],
        ["speedup over cold baseline", f"{report['speedup']:.1f}x"],
        ["exec latency p50/p90",
         f"{exec_lat.get('p50', 0.0) * 1e3:.2f}/"
         f"{exec_lat.get('p90', 0.0) * 1e3:.2f} ms"],
    ]
    return format_table(
        ["metric", "value"],
        rows,
        title=(f"serve-bench: mixed {report['variant']} workload, "
               f"{report['size']}x{report['size']} images"),
    )
