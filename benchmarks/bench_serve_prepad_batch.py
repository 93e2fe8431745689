"""Raw-speed tier: the pre-padded mode and kernel-level batching, priced.

Paper Section I dismisses padding because of its extra memory copy — for a
*single* filter invocation. This benchmark pins down where that argument
flips on the serve workload (PRs 1-6: repeated filters on same-shape
images):

* **the host variants tie at 64²** — with the plan cached, a 64² request
  is one host tile under every variant: ``prepad`` pads once and reads a
  view, ``naive``/``isp``/``isp_warp`` stage the same window once, and
  every variant then runs the same op tape. Before the tape executor
  prepad won this cell 2.5–9× (isp evaluated nine regions, naive mapped
  every tap); now no arm may be more than 1.5× slower than the fastest,
  which pins that none of them grew a per-region or per-tap cost again.
* **the autotuner finds a near-best arm** — an engine serving repeated
  ``variant="auto"`` requests of one image must *commit* one arm after its
  trial phase, and that arm must measure within 1.5× of the fastest.
* **kernel-level batching** — executing a stacked ``(N, H, W)`` batch in
  one call must amortize per-call overhead: >= 1.5x over a loop of N
  single executions at N = 8 (measured well above the crossover so loaded
  CI machines keep margin).

Headline numbers land in ``BENCH_serve_prepad_batch.json`` at the repo
root (machine-readable trajectory; see ``conftest.bench_summary``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.runtime import run_kernel_vectorized
from repro.serve.engine import Request, ServeEngine
from repro.serve.plan import build_plan

from harness import stable_seed

#: Small-image regime: one host tile per request under every variant.
SIZE = 64
#: Batch-amortization measurement size: small enough that per-call Python
#: overhead is a large fraction of a single execution (the quantity
#: batching amortizes), with margin over the 1.5x floor on loaded CI boxes.
BATCH_SIZE_PX = 48
APP = "gaussian"
PATTERN = "mirror"
BATCH_N = 8
#: amortization curve points (the crossover pin)
BATCH_SIZES = (1, 2, 4, 8)


def _per_call_us(fn, *, reps: int, warmup: int = 3) -> float:
    for _ in range(warmup):
        fn()
    best = float("inf")
    # Best-of-3 rounds of `reps` calls: co-tenant noise only ever inflates
    # a round, so the minimum is the least-contaminated estimate (same
    # convention as the autotuner's trial scoring).
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best * 1e6


def test_repeated_requests_and_batching(benchmark, report, bench_summary,
                                        case_rng):
    img = case_rng.standard_normal((SIZE, SIZE)).astype(np.float32)

    def build():
        per_call = {}
        for variant in ("naive", "isp", "isp_warp", "prepad", "fused"):
            plan = build_plan(APP, PATTERN, SIZE, SIZE, variant=variant)
            per_call[variant] = _per_call_us(lambda: plan.execute(img),
                                             reps=50)

        # --- autotuner arbitration on the repeated-same-image workload
        with ServeEngine(workers=1, batch_size=1, autotune=True) as engine:
            tuner = engine.tuner
            n_requests = (len(tuner.candidates) * tuner.trials_per_variant
                          + 4)
            responses = engine.run([
                Request(app=APP, image=img, pattern=PATTERN, variant="auto")
                for _ in range(n_requests)
            ])
            assert all(r.ok for r in responses), [r.error for r in responses]
            committed = [row["committed"] for row in tuner.table()]

        # --- kernel-level batching amortization curve
        plan = build_plan(APP, PATTERN, BATCH_SIZE_PX, BATCH_SIZE_PX,
                          variant="prepad")
        batch_rows = []
        for n in BATCH_SIZES:
            stack = case_rng.standard_normal(
                (n, BATCH_SIZE_PX, BATCH_SIZE_PX)
            ).astype(np.float32)
            batched_us = _per_call_us(lambda: plan.execute_batch(stack),
                                      reps=30)
            loop_us = _per_call_us(
                lambda: [plan.execute(stack[i]) for i in range(n)], reps=30
            )
            batch_rows.append({
                "n": n,
                "batched_us": batched_us,
                "loop_us": loop_us,
                "speedup": loop_us / batched_us,
            })
        return per_call, committed, batch_rows

    per_call, committed, batch_rows = benchmark.pedantic(
        build, rounds=1, iterations=1)
    at_8 = next(r for r in batch_rows if r["n"] == BATCH_N)

    lines = [
        f"raw-speed tier @ {APP}/{PATTERN}/{SIZE}x{SIZE}",
        "  per-request (plan cached):",
    ]
    for v, us in sorted(per_call.items(), key=lambda kv: kv[1]):
        lines.append(f"    {v:8s} {us:9.1f} us")
    lines.append(f"  autotuner committed: {committed}")
    lines.append(
        f"  batched (N,H,W) vs loop-of-1 [prepad @ "
        f"{BATCH_SIZE_PX}x{BATCH_SIZE_PX}]:"
    )
    for row in batch_rows:
        lines.append(
            f"    N={row['n']}: {row['batched_us']:9.1f} us vs "
            f"{row['loop_us']:9.1f} us  -> {row['speedup']:.2f}x"
        )
    text = "\n".join(lines)

    data = {
        "app": APP, "pattern": PATTERN, "size": SIZE,
        "batch_size_px": BATCH_SIZE_PX,
        "per_call_us": per_call,
        "tuner_committed": committed,
        "batch": batch_rows,
        "batch8_speedup": at_8["speedup"],
    }
    report("serve_prepad_batch", text, data=data)
    bench_summary("serve_prepad_batch", data)

    # One tile per 64² request under every variant: no arm may carry a
    # structural cost the others do not.
    fastest = min(per_call.values())
    assert max(per_call.values()) < 1.5 * fastest, per_call
    # The tuner must commit one arm, and a near-best one.
    assert len(committed) == 1, committed
    assert per_call[committed[0]] < 1.5 * fastest, (committed, per_call)
    # Batching must amortize: >= 1.5x over loop-of-1 at N=8.
    assert at_8["speedup"] >= 1.5, batch_rows


#: Table III-style cross-check set: (app, size) cells measured under all
#: four patterns. Bilateral is capped at 128 — its host naive execution is
#: ~70 ms/call and the larger sizes add minutes for no extra signal (the
#: 256/512 cells, measured offline, sit between the two regimes shown;
#: see EXPERIMENTS.md "Pre-padding").
CROSSCHECK_CELLS = (("gaussian", 128), ("gaussian", 256), ("bilateral", 128))
CROSSCHECK_PATTERNS = ("clamp", "mirror", "repeat", "constant")


def test_padding_model_crosscheck(benchmark, report, bench_summary, case_rng):
    """PaddingEstimate-based model gain vs measured host prepad gain.

    The analytic model prices prepad for the *GPU*: a bandwidth-cost copy
    (Section I's objection) plus the check-free kernel, against a naive
    kernel whose checks are nearly free ALU. The host executor stages each
    tile's window once (naive) or pads the image once (prepad) and then
    runs the same op tape, so the host arms tie: prepad neither wins nor
    loses by much. The model's GPU gain (0.6-1.8x) is reported beside it,
    not gated: the host no longer has a per-tap check cost for it to be
    compared against. (Before the tape executor the host mapped every tap,
    prepad won 1.2-5x and sat above the model on every gaussian cell;
    EXPERIMENTS.md keeps both.)
    """
    from repro.model.prediction import predict_prepad
    from repro.serve.plan import trace_app

    def build():
        rows = []
        for app, size in CROSSCHECK_CELLS:
            for pattern in CROSSCHECK_PATTERNS:
                descs = trace_app(app, pattern, size, size)
                desc = next(d for d in descs if d.needs_border_handling)
                name = desc.accessors[0].condition.image.name
                src = case_rng.standard_normal((size, size)) \
                    .astype(np.float32)
                reps = 5 if app == "gaussian" else 1
                naive_us = _per_call_us(
                    lambda: run_kernel_vectorized(desc, {name: src},
                                                  variant="naive"),
                    reps=reps, warmup=1)
                prepad_us = _per_call_us(
                    lambda: run_kernel_vectorized(desc, {name: src},
                                                  variant="prepad"),
                    reps=reps, warmup=1)
                rows.append({
                    "app": app, "size": size, "pattern": pattern,
                    "measured_gain": naive_us / prepad_us,
                    "model_gain": predict_prepad(desc).gain,
                })
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)

    lines = ["padding model vs measured host prepad gain:"]
    for r in rows:
        lines.append(
            f"  {r['app']:9s} {r['size']:4d} {r['pattern']:8s} "
            f"measured={r['measured_gain']:5.2f}x "
            f"model={r['model_gain']:5.2f}x"
        )
    report("prepad_model_crosscheck", "\n".join(lines), data={"cells": rows})
    bench_summary("prepad_model_crosscheck", {"cells": rows})

    # Pad once or stage once: neither host arm wins or loses by much.
    assert all(2 / 3 < r["measured_gain"] < 1.5 for r in rows), rows


def test_engine_kernel_batches_same_signature_requests(benchmark, case_rng,
                                                       bench_summary):
    """Engine-level: a micro-batch of same-signature requests is served by
    one (N, H, W) call, and the batched engine beats the unbatched one on
    the same workload."""
    imgs = [
        case_rng.standard_normal((SIZE, SIZE)).astype(np.float32)
        for _ in range(BATCH_N)
    ]

    def run_engine(kernel_batching: bool) -> tuple[float, dict]:
        with ServeEngine(workers=1, batch_size=BATCH_N,
                         kernel_batching=kernel_batching) as engine:
            requests = [
                Request(app=APP, image=im, pattern=PATTERN, variant="prepad")
                for im in imgs
            ]
            engine.run(requests)  # warm the plan cache
            t0 = time.perf_counter()
            for _ in range(10):
                responses = engine.run([
                    Request(app=APP, image=im, pattern=PATTERN,
                            variant="prepad")
                    for im in imgs
                ])
                assert all(r.ok for r in responses)
            elapsed = time.perf_counter() - t0
            return elapsed, engine.stats()["engine"]

    batched_s, batched_stats, unbatched_s, unbatched_stats = \
        benchmark.pedantic(
            lambda: run_engine(True) + run_engine(False),
            rounds=1, iterations=1)

    assert batched_stats.get("engine.kernel_batches", 0) > 0
    assert unbatched_stats.get("engine.kernel_batches", 0) == 0
    bench_summary("serve_kernel_batching", {
        "batched_s": batched_s,
        "unbatched_s": unbatched_s,
        "speedup": unbatched_s / batched_s,
        "kernel_batches": batched_stats.get("engine.kernel_batches"),
        "kernel_batched_requests": batched_stats.get(
            "engine.kernel_batched_requests"),
    })
    # The threaded engine adds queue/submit overhead on top of the kernel
    # call, so the end-to-end ratio is softer than the plan-level one —
    # batching still must not lose.
    assert batched_s < unbatched_s * 1.10, (batched_s, unbatched_s)
