"""Serve engine: correctness under concurrency, timeouts, backpressure.

The engine must be a *transparent* performance layer: whatever it serves has
to be bit-identical to calling the vectorized executor directly, no matter
how requests are batched, cached, or raced across workers.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.dsl import Boundary
from repro.filters import PIPELINES
from repro.runtime import run_pipeline_vectorized
from repro.serve import (
    EngineClosed,
    EngineSaturated,
    Request,
    ServeEngine,
)


def _direct(app: str, image, pattern: str, variant: str = "isp"):
    pipe = PIPELINES[app](image.shape[1], image.shape[0], Boundary(pattern))
    images = run_pipeline_vectorized(pipe, {pipe.inputs[0].name: image},
                                     variant=variant)
    return images[pipe.output.name]


@pytest.fixture
def image(rng):
    return rng.random((64, 64), dtype=np.float32)


class TestBasicServing:
    def test_single_request_matches_direct_execution(self, image):
        with ServeEngine(workers=2) as engine:
            resp = engine.run([Request(app="gaussian", image=image,
                                       pattern="mirror", variant="isp")])[0]
        assert resp.ok, resp.error
        assert np.array_equal(resp.output, _direct("gaussian", image, "mirror"))
        assert resp.worker.startswith("serve-")

    def test_all_apps_and_patterns_serve_correctly(self, image):
        reqs, refs = [], []
        for app in ("gaussian", "laplace", "bilateral", "sobel", "night"):
            for pattern in ("clamp", "repeat"):
                reqs.append(Request(app=app, image=image, pattern=pattern,
                                    variant="isp"))
                refs.append(_direct(app, image, pattern))
        with ServeEngine(workers=4) as engine:
            responses = engine.run(reqs)
        for resp, ref in zip(responses, refs):
            assert resp.ok, resp.error
            assert np.array_equal(resp.output, ref)

    def test_cache_hits_accumulate_for_repeated_workloads(self, image):
        with ServeEngine(workers=2) as engine:
            engine.run([Request(app="sobel", image=image, variant="isp")
                        for _ in range(10)])
            stats = engine.stats()
        assert stats["engine"]["engine.plan_cache_misses"] == 1
        assert stats["engine"]["engine.plan_cache_hits"] == 9
        assert stats["engine"]["engine.responses_ok"] == 10
        assert stats["latency"]["engine.execute_seconds"]["count"] == 10

    def test_request_validation(self, image):
        with pytest.raises(ValueError):
            Request(app="gaussian", image=image, variant="warp11")
        with pytest.raises(ValueError):
            Request(app="gaussian", image=image, exec_mode="fpga")
        with pytest.raises(ValueError):
            Request(app="gaussian", image=np.zeros(16, np.float32))

    def test_submit_after_close_raises(self, image):
        engine = ServeEngine(workers=1)
        engine.close()
        with pytest.raises(EngineClosed):
            engine.submit(Request(app="gaussian", image=image))


class TestConcurrency:
    def test_concurrent_submitters_get_bit_identical_outputs(self, rng):
        """≥4 threads hammer one engine; every response must equal the
        single-threaded direct execution bit for bit."""
        images = [rng.random((48, 48), dtype=np.float32) for _ in range(4)]
        cases = [("gaussian", "clamp"), ("laplace", "mirror"),
                 ("sobel", "repeat"), ("night", "clamp")]
        refs = {
            (app, pattern, i): _direct(app, img, pattern)
            for app, pattern in cases
            for i, img in enumerate(images)
        }
        failures: list[str] = []

        with ServeEngine(workers=4, queue_depth=256) as engine:
            def submitter(app: str, pattern: str):
                for rep in range(3):
                    for i, img in enumerate(images):
                        resp = engine.submit(
                            Request(app=app, image=img, pattern=pattern,
                                    variant="isp"),
                            block=True,
                        ).result(timeout=60)
                        if not resp.ok:
                            failures.append(resp.error)
                        elif not np.array_equal(resp.output,
                                                refs[(app, pattern, i)]):
                            failures.append(f"{app}/{pattern}/{i}: mismatch")

            threads = [threading.Thread(target=submitter, args=case)
                       for case in cases]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            stats = engine.stats()

        assert not failures, failures[:3]
        total = stats["engine"]["engine.responses_ok"]
        assert total == 4 * 3 * 4
        # 4 distinct workloads -> at most 4 cold builds for 48 requests.
        assert stats["engine"]["engine.plan_cache_misses"] <= 4
        assert stats["engine"]["engine.plan_cache_hits"] >= total - 4

    def test_micro_batching_groups_same_signature(self, image):
        gate = threading.Event()
        original = ServeEngine._execute

        def gated(self, plan, pending, response):
            gate.wait(10.0)
            return original(self, plan, pending, response)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ServeEngine, "_execute", gated)
            with ServeEngine(workers=1, batch_size=8) as engine:
                handles = [
                    engine.submit(Request(app="gaussian", image=image,
                                          variant="isp"))
                    for _ in range(6)
                ]
                time.sleep(0.1)  # let the worker take the first request
                gate.set()
                responses = [h.result(timeout=30) for h in handles]
                stats = engine.stats()

        assert all(r.ok for r in responses)
        # First dequeue grabs whatever is queued (1 request); the remaining 5
        # coalesce into at most one more batch.
        assert stats["engine"]["engine.batches"] <= 3
        assert stats["engine"]["engine.plan_cache_misses"] == 1


class TestPlanBatchExecution:
    """ExecutionPlan.execute_batch: one (N, H, W) call, batch-agnostic plans."""

    def test_execute_batch_bitexact_for_every_variant(self, rng):
        from repro.serve.plan import PLAN_VARIANTS, build_plan

        stack = rng.random((3, 32, 32), dtype=np.float32)
        for variant in PLAN_VARIANTS:
            plan = build_plan("laplace", "mirror", 32, 32, variant=variant)
            batched = plan.execute_batch(stack)
            assert batched.shape == (3, 32, 32), variant
            for i in range(3):
                assert np.array_equal(batched[i], plan.execute(stack[i])), (
                    variant, i)

    def test_plan_identity_is_batch_agnostic(self, rng):
        """Batch size is an execution-time property: the same PlanKey (and so
        the same cached plan) serves N=1 and N=8."""
        from repro.serve.plan import build_plan, plan_key, trace_app

        descs = trace_app("gaussian", "clamp", 64, 64)
        k1 = plan_key(descs, variant="prepad", pattern="clamp")
        k8 = plan_key(descs, variant="prepad", pattern="clamp")
        assert k1 == k8  # nothing batch-shaped to differ on
        plan = build_plan("gaussian", "clamp", 64, 64, variant="prepad")
        single = plan.execute(rng.random((64, 64), dtype=np.float32))
        stack = rng.random((8, 64, 64), dtype=np.float32)
        assert plan.execute_batch(stack).shape == (8, 64, 64)
        assert single.shape == (64, 64)

    def test_batch_shape_validation(self, rng):
        from repro.serve.plan import build_plan

        plan = build_plan("sobel", "clamp", 32, 32, variant="naive")
        with pytest.raises(ValueError, match="batch image shape"):
            plan.execute_batch(rng.random((32, 32), dtype=np.float32))
        with pytest.raises(ValueError, match="request image shape"):
            plan.execute(rng.random((2, 32, 32), dtype=np.float32))

    def test_prepad_plan_builds_and_sanitizes(self):
        from repro.serve.plan import build_plan

        plan = build_plan("gaussian", "mirror", 64, 64, variant="prepad")
        assert all(v == "prepad" for _, v in plan.stages())
        # The SIMT shape backing sanitize is the fully checked kernel; the
        # static sanitizer must pass it like any naive build.
        reports = plan.sanitize()
        assert reports and all(r.ok for r in reports)


#: (app, size) pairs whose ISP geometry is degenerate at block 32x4 for at
#: least one bordered stage.
DEGENERATE_ISP = [("laplace", 3), ("laplace", 17), ("laplace", 24),
                  ("laplace", 33), ("bilateral", 16), ("gaussian", 2),
                  ("night", 20)]


class TestIspPlans:
    """``isp`` and ``isp_warp`` plans build for every geometry, and an
    ``isp_warp`` stage runs the host's ``isp`` schedule."""

    @pytest.mark.parametrize("pattern", ["clamp", "mirror", "repeat",
                                         "constant"])
    @pytest.mark.parametrize("app,size", DEGENERATE_ISP)
    def test_degenerate_geometry_serves_naive_bits(self, rng, app, size,
                                                   pattern):
        from repro.compiler import Variant
        from repro.compiler.regions import RegionGeometry
        from repro.serve.plan import build_plan

        block = (32, 4)
        img = rng.random((size, size), dtype=np.float32)
        naive = build_plan(app, pattern, size, size, variant="naive",
                           block=block)
        expected = naive.execute(img)
        bordered = {d.name for d in naive.descs if d.needs_border_handling}
        degenerate = {
            d.name for d in naive.descs if d.name in bordered
            and RegionGeometry.compute(d.width, d.height, *d.extent,
                                       block).degenerate
        }
        assert degenerate
        for variant in ("isp", "isp_warp"):
            plan = build_plan(app, pattern, size, size, variant=variant,
                              block=block)
            assert [v for name, v in plan.stages() if name in bordered] == [
                variant] * len(bordered)
            assert np.array_equal(plan.execute(img), expected), variant
            for name, _, ck in plan._simt_stages():
                if name in degenerate:
                    assert ck.effective_variant is Variant.NAIVE, (
                        variant, name)

    @pytest.mark.parametrize("pattern", ["clamp", "mirror", "repeat",
                                         "constant"])
    def test_isp_warp_stage_runs_the_isp_schedule(self, rng, pattern):
        from repro.compiler import Variant
        from repro.runtime.vectorized import TILE_COLS, TILE_ROWS, schedule
        from repro.serve import plan as plan_mod

        # The middle tile lies inside the image, so isp reads a view there.
        width, height = 2 * TILE_COLS + 3, 2 * TILE_ROWS + 3
        (desc,) = plan_mod.trace_app("laplace", pattern, width, height)
        assert any(t[4] for t in schedule("isp", width, height, *desc.extent))
        img = rng.random((height, width), dtype=np.float32)
        seen = []
        real = plan_mod.run_kernel_vectorized

        def recording(desc, images, *, variant, **kw):
            seen.append(variant)
            return real(desc, images, variant=variant, **kw)

        outs = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(plan_mod, "run_kernel_vectorized", recording)
            for variant in ("isp_warp", "isp"):
                plan = plan_mod.build_plan("laplace", pattern, width, height,
                                           variant=variant)
                outs[variant] = plan.execute(img)
        assert seen == ["isp", "isp"]
        assert np.array_equal(outs["isp_warp"], outs["isp"])
        warp = plan_mod.build_plan("laplace", pattern, width, height,
                                   variant="isp_warp")
        assert [v for _, v, _ in warp._simt_stages()] == ["isp_warp"]
        assert warp._compiled_simt()[0].effective_variant is Variant.ISP_WARP


class TestKernelBatching:
    """Engine-level (N, H, W) collapse of same-signature micro-batches."""

    def _run_gated(self, engine, image, n=6):
        """Block the single worker on the first (singleton) batch so the
        remaining requests pile up and dequeue as one micro-batch."""
        gate = threading.Event()
        original = ServeEngine._execute

        def gated(self, plan, pending, response):
            gate.wait(10.0)
            return original(self, plan, pending, response)

        taken = threading.Event()

        def gated_marking(self, plan, pending, response):
            taken.set()
            return gated(self, plan, pending, response)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ServeEngine, "_execute", gated_marking)
            handles = [engine.submit(Request(app="gaussian", image=image,
                                             variant="prepad"))]
            # Wait until the worker has dequeued request 1 (a singleton
            # batch, so it runs _execute and parks on the gate) before
            # queueing the rest — they then dequeue as one micro-batch.
            taken.wait(10.0)
            handles += [
                engine.submit(Request(app="gaussian", image=image,
                                      variant="prepad"))
                for _ in range(n - 1)
            ]
            time.sleep(0.05)
            gate.set()
            return [h.result(timeout=30) for h in handles]

    def test_same_signature_requests_collapse_to_one_kernel_call(self, image):
        with ServeEngine(workers=1, batch_size=8) as engine:
            responses = self._run_gated(engine, image)
            stats = engine.stats()
        assert all(r.ok for r in responses)
        ref = _direct("gaussian", image, "clamp", variant="prepad")
        for r in responses:
            assert np.array_equal(r.output, ref)
        # Requests 2..6 were queued behind the gate: exactly one kernel batch
        # of 5 (the first request went down the singleton path).
        assert stats["engine"]["engine.kernel_batches"] == 1
        assert stats["engine"]["engine.kernel_batched_requests"] == 5
        # Batched requests are real executions: latency is observed per
        # request, not per batch.
        assert stats["latency"]["engine.execute_seconds"]["count"] == 6

    def test_kernel_batching_can_be_disabled(self, image):
        with ServeEngine(workers=1, batch_size=8,
                         kernel_batching=False) as engine:
            responses = self._run_gated(engine, image)
            stats = engine.stats()["engine"]
        assert all(r.ok for r in responses)
        assert stats.get("engine.kernel_batches", 0) == 0

    def test_batch_failure_falls_back_to_per_request_execution(self, image):
        """If the one-shot stacked call fails, the engine must retry the
        micro-batch request-by-request — batching can only ever speed
        things up, never change an outcome."""
        from repro.serve.plan import ExecutionPlan

        def boom(self, images):
            raise RuntimeError("injected batch failure")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ExecutionPlan, "execute_batch", boom)
            with ServeEngine(workers=1, batch_size=8) as engine:
                responses = self._run_gated(engine, image)
                stats = engine.stats()["engine"]
        assert all(r.ok for r in responses), [r.error for r in responses]
        assert stats.get("engine.kernel_batches", 0) == 0
        ref = _direct("gaussian", image, "clamp", variant="prepad")
        for r in responses:
            assert np.array_equal(r.output, ref)


class _ShiftedClock:
    """The ``time`` module with a ``perf_counter`` that can be pushed ahead."""

    def __init__(self):
        self.offset = 0.0

    def perf_counter(self):
        return time.perf_counter() + self.offset

    def __getattr__(self, name):
        return getattr(time, name)


def _expect_late_simt_result_discarded():
    """A simulation that finishes after its deadline, while the waiting
    worker sees a finished thread, must still take the timeout path."""
    import importlib

    from repro.serve import ExecutionPlan

    engine_mod = importlib.import_module("repro.serve.engine")
    clock = _ShiftedClock()
    execute_simt = ExecutionPlan.execute_simt

    def late(plan, image, **kwargs):
        out = execute_simt(plan, image, **kwargs)
        clock.offset += 120.0  # finished two minutes after it started
        return out

    img = np.random.default_rng(5).random((16, 16), dtype=np.float32)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_mod, "time", clock)
        mp.setattr(ExecutionPlan, "execute_simt", late)
        with ServeEngine(workers=1) as engine:
            resp = engine.run([Request(app="gaussian", image=img,
                                       variant="naive", exec_mode="simt",
                                       timeout_s=60.0)])[0]
            stats = engine.stats()["engine"]
    if not resp.ok:
        raise AssertionError(resp.error)
    if resp.fallbacks != ["timeout:simt->vectorized"]:
        raise AssertionError(f"late result served as on time: {resp.fallbacks}")
    if stats["engine.fallbacks_timeout"] != 1:
        raise AssertionError(stats)
    counted = {k: v for k, v in stats.items()
               if k.startswith("engine.simt_events_") and v}
    if counted:
        raise AssertionError(f"discarded run's events counted: {counted}")
    if not np.array_equal(resp.output, _direct("gaussian", img, "clamp", "naive")):
        raise AssertionError("fallback output differs from the vectorized path")


class TestDegradation:
    def test_degenerate_isp_serves_without_fallback(self, rng):
        # bilateral (5x5 window) on a 16x16 image with 32x4 blocks has a
        # degenerate ISP geometry. No host tile lies inside the image, so
        # the isp schedule stages every tile like naive, and the compiler
        # collapses the ISP kernel to the naive one: an "isp" plan serves
        # naive's bits on both paths, with no degradation to report.
        img = rng.random((16, 16), dtype=np.float32)
        with ServeEngine(workers=1) as engine:
            responses = engine.run([
                Request(app="bilateral", image=img, variant=variant,
                        exec_mode=mode)
                for mode in ("vectorized", "simt")
                for variant in ("isp", "naive")
            ])
        for resp in responses:
            assert resp.ok, resp.error
            assert resp.fallbacks == []
        host_isp, host_naive, simt_isp, simt_naive = (
            r.output for r in responses)
        assert responses[0].variant == responses[2].variant == "isp"
        assert np.array_equal(host_isp, host_naive)
        assert np.array_equal(host_isp,
                              _direct("bilateral", img, "clamp", "naive"))
        assert np.array_equal(simt_isp, simt_naive)

    def test_simt_timeout_falls_back_to_vectorized(self, rng):
        # Full SIMT simulation of 48x48 bilateral (25 taps, each with an
        # exp) takes far longer than 50ms; the engine must abandon it and
        # serve the vectorized answer.
        img = rng.random((48, 48), dtype=np.float32)
        with ServeEngine(workers=1) as engine:
            resp = engine.run([Request(app="bilateral", image=img,
                                       variant="naive", exec_mode="simt",
                                       timeout_s=0.05)])[0]
            stats = engine.stats()
        assert resp.ok, resp.error
        assert "timeout:simt->vectorized" in resp.fallbacks
        assert stats["engine"]["engine.fallbacks_timeout"] == 1
        assert np.array_equal(resp.output,
                              _direct("bilateral", img, "clamp", "naive"))

    def test_late_simt_result_is_not_served_as_on_time(self):
        _expect_late_simt_result_discarded()

    def test_late_simt_result_is_not_served_as_on_time_under_O(self):
        root = Path(__file__).resolve().parents[1]
        path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run(
            [sys.executable, "-O", "-c",
             "import sys\n"
             "if not sys.flags.optimize: sys.exit('asserts not stripped')\n"
             "from tests.test_serve_engine import "
             "_expect_late_simt_result_discarded as check; check()"],
            cwd=root, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr

    def test_simt_within_budget_serves_simulated_result(self, rng):
        img = rng.random((16, 16), dtype=np.float32)
        with ServeEngine(workers=1) as engine:
            resp = engine.run([Request(app="gaussian", image=img,
                                       variant="naive", exec_mode="simt")])[0]
        assert resp.ok, resp.error
        assert resp.fallbacks == []
        # The SIMT simulator and the vectorized path agree closely (they are
        # different arithmetic orders, so allow float slack).
        ref = _direct("gaussian", img, "clamp", "naive")
        assert np.abs(resp.output - ref).max() < 1e-4

    def test_queue_timeout_fails_fast(self, image):
        gate = threading.Event()
        original = ServeEngine._execute

        def gated(self, plan, pending, response):
            gate.wait(10.0)
            return original(self, plan, pending, response)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ServeEngine, "_execute", gated)
            with ServeEngine(workers=1, batch_size=1) as engine:
                first = engine.submit(Request(app="gaussian", image=image,
                                              variant="isp"))
                time.sleep(0.05)  # worker is now gated on the first request
                late = engine.submit(Request(app="gaussian", image=image,
                                             variant="isp", timeout_s=0.01))
                time.sleep(0.1)  # let the deadline lapse while queued
                gate.set()
                assert first.result(timeout=30).ok
                resp = late.result(timeout=30)
                stats = engine.stats()
        assert not resp.ok
        assert "queued" in resp.error
        assert stats["engine"]["engine.timeouts_queue"] == 1


class TestDeadlineSemantics:
    """The deadline/result() bugfix sweep: inclusive (>=) boundaries, typed
    timeout_execute, and the caller-vs-worker expiry race."""

    def _gated_engine(self, mp, gate, **kwargs):
        original = ServeEngine._execute

        def gated(self, plan, pending, response):
            gate.wait(10.0)
            return original(self, plan, pending, response)

        mp.setattr(ServeEngine, "_execute", gated)
        return ServeEngine(**kwargs)

    def test_caller_expiry_while_queued_yields_typed_timeout(self, image):
        """result() whose wait expires past the request deadline resolves
        the request as a typed timeout_queue Response instead of raising —
        the race the old code left untyped."""
        gate = threading.Event()
        with pytest.MonkeyPatch.context() as mp:
            with self._gated_engine(mp, gate, workers=1,
                                    batch_size=1) as engine:
                first = engine.submit(Request(app="gaussian", image=image,
                                              variant="isp"))
                time.sleep(0.05)  # worker is now gated on the first request
                late = engine.submit(Request(app="gaussian", image=image,
                                             variant="isp", timeout_s=0.01))
                resp = late.result(timeout=0.3)  # expires past the deadline
                gate.set()
                assert first.result(timeout=30).ok
                # The worker eventually reaches the expired request too; the
                # caller's claim must have won exactly once.
                engine.close()
                stats = engine.stats()
        assert not resp.ok
        assert resp.error_kind == "timeout_queue"
        assert "queued" in resp.error
        assert stats["engine"]["engine.timeouts_queue"] == 1
        assert stats["engine"]["engine.responses_error"] == 1
        assert stats["engine"]["engine.responses_ok"] == 1
        # the losing worker resolution must not overwrite the caller's
        assert late.result(timeout=1).error_kind == "timeout_queue"

    def test_caller_wait_shorter_than_deadline_still_raises(self, image):
        """A short result() wait on a request whose own deadline has NOT
        passed is just an in-flight request — TimeoutError, no typing."""
        gate = threading.Event()
        with pytest.MonkeyPatch.context() as mp:
            with self._gated_engine(mp, gate, workers=1,
                                    batch_size=1) as engine:
                h = engine.submit(Request(app="gaussian", image=image,
                                          variant="isp", timeout_s=30.0))
                with pytest.raises(TimeoutError):
                    h.result(timeout=0.05)
                gate.set()
                assert h.result(timeout=30).ok

    def test_caller_expiry_during_execution_types_timeout_execute(self, image):
        """Expiry after the worker started executing is a different failure
        than expiry in the queue; the caller-side claim must say which."""
        gate = threading.Event()
        with ServeEngine(workers=1, batch_size=1) as engine:
            # Warm the plan cache so the timed request reaches the execute
            # phase quickly (a cold build would keep it typed as queued).
            assert engine.run([Request(app="gaussian", image=image,
                                       variant="isp")])[0].ok
            original = ServeEngine._execute

            def gated(self, plan, pending, response):
                gate.wait(10.0)
                return original(self, plan, pending, response)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ServeEngine, "_execute", gated)
                h = engine.submit(Request(app="gaussian", image=image,
                                          variant="isp", timeout_s=0.1))
                time.sleep(0.05)  # worker dequeued it and is gated inside
                resp = h.result(timeout=0.3)
                gate.set()
            engine.close()
            stats = engine.stats()
        assert not resp.ok
        assert resp.error_kind == "timeout_execute"
        assert "during execution" in resp.error
        assert stats["engine"]["engine.timeouts_execute"] == 1

    def test_deadline_stopped_retries_fail_typed_as_timeout(self, image):
        """A failing execution stopped by the deadline with retry budget
        remaining is a timeout, not an 'execution' failure — the old loop
        conflated the two."""
        def failing(self, plan, pending, response):
            time.sleep(0.25)
            raise RuntimeError("transient")

        with ServeEngine(workers=1, batch_size=1, retries=10) as engine:
            assert engine.run([Request(app="gaussian", image=image,
                                       variant="isp")])[0].ok  # warm plan
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ServeEngine, "_execute", failing)
                resp = engine.run([Request(app="gaussian", image=image,
                                           variant="isp", timeout_s=0.2)])[0]
            stats = engine.stats()
        assert not resp.ok
        assert resp.error_kind == "timeout_execute"
        assert resp.retries < 10  # the deadline, not the budget, stopped it
        assert stats["engine"]["engine.timeouts_execute"] == 1

    def test_exhausted_retry_budget_stays_typed_execution(self, image):
        """Without a deadline in play, exhausting retries is still a plain
        execution failure."""
        def failing(self, plan, pending, response):
            raise RuntimeError("persistent")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ServeEngine, "_execute", failing)
            with ServeEngine(workers=1, batch_size=1, retries=2) as engine:
                resp = engine.run([Request(app="gaussian", image=image,
                                           variant="isp")])[0]
        assert not resp.ok
        assert resp.error_kind == "execution"
        assert resp.retries == 2


class TestBackpressure:
    def test_saturated_queue_rejects_submissions(self, image):
        gate = threading.Event()
        original = ServeEngine._execute

        def gated(self, plan, pending, response):
            gate.wait(10.0)
            return original(self, plan, pending, response)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ServeEngine, "_execute", gated)
            with ServeEngine(workers=1, queue_depth=2, batch_size=1) as engine:
                held = engine.submit(Request(app="gaussian", image=image,
                                             variant="isp"))
                time.sleep(0.05)  # worker holds request 1; queue is empty
                fillers = [
                    engine.submit(Request(app="gaussian", image=image,
                                          variant="isp"))
                    for _ in range(2)
                ]
                with pytest.raises(EngineSaturated):
                    engine.submit(Request(app="gaussian", image=image,
                                          variant="isp"))
                gate.set()
                responses = [h.result(timeout=30)
                             for h in [held] + fillers]
                stats = engine.stats()
        assert all(r.ok for r in responses)
        assert stats["engine"]["engine.requests_rejected"] == 1
        assert stats["engine"]["engine.responses_ok"] == 3

    def test_blocking_submit_waits_for_space(self, image):
        with ServeEngine(workers=2, queue_depth=2) as engine:
            responses = engine.run([
                Request(app="gaussian", image=image, variant="isp")
                for _ in range(12)
            ])
        assert len(responses) == 12
        assert all(r.ok for r in responses)


class TestStatsShape:
    def test_stats_exposes_engine_cache_and_latency(self, image):
        with ServeEngine(workers=1) as engine:
            engine.run([Request(app="gaussian", image=image, variant="isp")])
            stats = engine.stats()
        assert {"engine", "latency", "plan_cache"} <= set(stats)
        assert stats["plan_cache"]["size"] == 1
        for name in ("engine.queue_seconds", "engine.plan_build_seconds",
                     "engine.execute_seconds"):
            assert name in stats["latency"]
            assert {"count", "mean", "p50", "p90", "p99", "max"} <= set(
                stats["latency"][name]
            )


class TestCloseLifecycle:
    """close() is part of the cluster's crash-and-respawn story: shard
    lifecycle code calls it from signal handlers, monitor threads, and
    worker threads — idempotently, concurrently, sometimes reentrantly.
    None of those paths may raise, deadlock, or double-persist the tuner."""

    def test_double_close_is_idempotent(self, image):
        engine = ServeEngine(workers=2)
        engine.run([Request(app="gaussian", image=image, variant="isp")])
        engine.close()
        engine.close()  # must be a no-op, not an error
        with pytest.raises(EngineClosed):
            engine.submit(Request(app="gaussian", image=image))

    def test_concurrent_close_from_many_threads(self, image):
        engine = ServeEngine(workers=2)
        engine.run([Request(app="gaussian", image=image, variant="isp")])
        errors = []

        def _close():
            try:
                engine.close(timeout=10)
            except Exception as exc:  # noqa: BLE001 - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=_close) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads), "close() deadlocked"
        assert not errors

    def test_close_persists_tuner_exactly_once(self, image, tmp_path):
        path = tmp_path / "tuner.json"
        engine = ServeEngine(workers=2, autotune_path=str(path))
        engine.run([Request(app="gaussian", image=image, variant="auto")
                    for _ in range(4)])
        threads = [threading.Thread(target=engine.close) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert path.exists()
        mtime = path.stat().st_mtime_ns
        engine.close()  # late close after the table was already persisted
        assert path.stat().st_mtime_ns == mtime  # not rewritten

    def test_context_manager_exit_then_explicit_close(self, image):
        with ServeEngine(workers=1) as engine:
            engine.run([Request(app="sobel", image=image, variant="isp")])
        engine.close()  # after __exit__ already closed it
