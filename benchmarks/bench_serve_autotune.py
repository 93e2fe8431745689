"""Adaptive serving — the autotuner vs every static variant policy.

The point of ``repro.serve.autotune``: an engine that learns the
per-config winner should match or beat the *best* static variant and
clearly beat the worst. The workload mixes 64² and 384² images. On the
host every variant is a tile schedule of one tape executor: a 64² image is
one tile under all of them, ``naive`` and ``isp`` read within noise of each
other at both sizes, and ``isp_warp`` runs the ``isp`` schedule. So the
static policies take about the same time, and what this benchmark measures
is the tuner's own per-request cost and trial overhead against them.

Each policy runs on an identical engine over the identical mixed workload,
after an identical warmup pass that pre-builds plans (and, for ``auto``,
completes the tuner's trial phase) — so the timed window compares
steady-state serving, not cold compilation. Acceptance:

* adaptive throughput >= 0.98x the best static variant, and
* adaptive throughput strictly above the worst static variant.
"""

from __future__ import annotations

import time

from repro.reporting import format_table
from repro.serve import Request, ServeEngine, build_workload

from harness import stable_seed

APPS = ("gaussian", "laplace")
PATTERNS = ("clamp", "repeat")
#: one size on each side of the naive/region-sliced crossover
SIZES = (64, 384)
WARMUP_PASSES = 8
TIMED_REQUESTS = 96
STATIC_POLICIES = ("naive", "isp", "isp_warp")


def _interleave(parts: list[list[Request]]) -> list[Request]:
    return [r for group in zip(*parts) for r in group]


def _workloads(variant: str) -> tuple[list[Request], list[Request]]:
    """(warmup, timed) request lists for one policy over the same mix."""
    kinds_per_size = len(APPS) * len(PATTERNS)
    # Round-robin warmup, sizes interleaved: WARMUP_PASSES passes over every
    # config — enough to finish the tuner's trials (2 per candidate, 4
    # candidates) and to charge every plan build before the timed window.
    warmup = _interleave([
        build_workload(WARMUP_PASSES * kinds_per_size, size=s,
                       seed=stable_seed("bench_serve_autotune", "warm", s),
                       apps=APPS, patterns=PATTERNS, variant=variant,
                       shuffle=False)
        for s in SIZES
    ])
    timed = _interleave([
        build_workload(TIMED_REQUESTS // len(SIZES), size=s,
                       seed=stable_seed("bench_serve_autotune", "timed", s),
                       apps=APPS, patterns=PATTERNS, variant=variant,
                       shuffle=True)
        for s in SIZES
    ])
    return warmup, timed


def _run_policy(variant: str) -> dict:
    warmup, timed = _workloads(variant)
    # One worker, one request per batch: fully serial execution, so every
    # trial the tuner observes is an uncontended single-threaded timing and
    # the learned table is reproducible. (Parallel workers time-share the
    # interpreter, which contaminates trial samples with whatever the
    # sibling worker is compiling at that moment.)
    engine = ServeEngine(workers=1, batch_size=1, queue_depth=256,
                         autotune=(variant == "auto"))
    with engine:
        for r in engine.run(warmup):
            assert r.ok, f"warmup failed under {variant}: {r.error}"
        t0 = time.perf_counter()
        responses = engine.run(timed)
        elapsed = time.perf_counter() - t0
        errors = [r for r in responses if not r.ok]
        tuned = (engine.tuner.table() if variant == "auto" else [])
    assert not errors, f"{len(errors)} requests failed under {variant}"
    return {
        "variant": variant,
        "elapsed_s": elapsed,
        "throughput_rps": len(timed) / elapsed,
        "tuned": tuned,
    }


def test_serve_autotune(benchmark, report):
    results = {v: _run_policy(v) for v in STATIC_POLICIES}
    results["auto"] = benchmark.pedantic(
        lambda: _run_policy("auto"), rounds=1, iterations=1
    )

    static_rps = {v: results[v]["throughput_rps"] for v in STATIC_POLICIES}
    auto_rps = results["auto"]["throughput_rps"]
    best_static = max(static_rps, key=static_rps.get)
    worst_static = min(static_rps, key=static_rps.get)

    rows = [[v, f"{r['throughput_rps']:.1f}"]
            for v, r in results.items()]
    table = format_table(
        ["policy", "req/s"], rows,
        title=(f"serve-autotune: mixed {len(APPS)}x{len(PATTERNS)} workload, "
               f"sizes {'+'.join(map(str, SIZES))}, "
               f"{TIMED_REQUESTS} timed requests"),
    )
    learned = "\n".join(
        f"  {row['key'].short()}: G={row['model_gain']:.3f} "
        f"model={row['model_choice']} learned={row['committed']}"
        for row in results["auto"]["tuned"]
    )
    report("serve_autotune", table + "\nlearned table:\n" + learned, data={
        "static_rps": static_rps,
        "auto_rps": auto_rps,
        "best_static": best_static,
        "worst_static": worst_static,
    })

    # The adaptive engine serves each config with its learned winner, so it
    # must hold the best static policy's throughput (2% noise margin) and
    # clearly beat a uniformly wrong choice.
    assert auto_rps >= 0.98 * static_rps[best_static], (
        f"auto {auto_rps:.1f} rps < 0.98x best static "
        f"{best_static}={static_rps[best_static]:.1f} rps"
    )
    assert auto_rps > static_rps[worst_static], (
        f"auto {auto_rps:.1f} rps not above worst static "
        f"{worst_static}={static_rps[worst_static]:.1f} rps"
    )
